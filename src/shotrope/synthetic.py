"""Oracle-checkable synthetic multi-shot token data.

Each sample shares one identity vector across shots; scene and motion
are discrete per-shot caption ids.  Tokens are a fixed full-rank linear
render of [identity | scene | motion | position features] plus optional
gaussian noise, so a pseudo-inverse recovers every factor exactly from
clean tokens.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .shots import ShotLayout
from .tensor import ConfigError, NumericError, Tensor, config_from_dict

FOURIER_DIM = 6


@dataclass
class CaptionEntry:
    shot: int
    scene_id: int
    motion_id: int
    id_vector: Optional[Tensor] = None  # [1, d_model] identity row
    dropped: bool = False


@dataclass
class CaptionBundle:
    entries: list

    def __post_init__(self):
        shots = sorted(e.shot for e in self.entries)
        if shots != list(range(len(self.entries))):
            raise ConfigError(
                f"caption bundle must cover shots 0..S-1 exactly once, got {shots}"
            )

    @property
    def shot_count(self):
        return len(self.entries)

    def by_shot(self):
        return sorted(self.entries, key=lambda e: e.shot)

    def replace_entries(self, change):
        """A new bundle of dataclasses.replace(e, **change(e)), entry by entry in order."""
        return CaptionBundle([replace(e, **change(e)) for e in self.entries])


@dataclass
class Sample:
    tokens: np.ndarray  # clean latent tokens [N, d_token]
    captions: CaptionBundle
    layout: ShotLayout
    id_index: int
    scene_ids: tuple
    motion_ids: tuple


@dataclass(eq=False)
class SyntheticWorld:
    seed: int
    n_ids: int = 256
    d_id: int = 16
    v_scene: int = 8
    v_mot: int = 4
    d_token: int = 128
    sigma: float = 0.05
    height: int = 4
    width: int = 4

    def __post_init__(self):
        self.seed = int(self.seed)
        self.sigma = float(self.sigma)
        sizes = (self.n_ids, self.d_id, self.v_scene, self.v_mot, self.height, self.width)
        if self.seed < 0 or min(sizes) < 1:
            raise ConfigError("world seed must be >= 0 and its sizes and grid >= 1")
        rng = np.random.default_rng(self.seed)
        ids = rng.standard_normal((self.n_ids, self.d_id))
        self.ids = (ids / np.linalg.norm(ids, axis=1, keepdims=True)).astype(np.float32)
        # orthonormal vocabularies keep nearest-neighbour decoding crisp
        self.scene_vecs, self.motion_vecs = (
            np.linalg.qr(rng.standard_normal((v, v)))[0].astype(np.float32)
            for v in (self.v_scene, self.v_mot)
        )
        self.d_factor = self.d_id + self.v_scene + self.v_mot + FOURIER_DIM
        if self.d_token < self.d_factor:
            raise ConfigError(f"world d_token must be >= d_id + v_scene + v_mot + {FOURIER_DIM}")
        m = rng.standard_normal((self.d_token, self.d_factor)) / np.sqrt(self.d_factor)
        if np.linalg.matrix_rank(m) < self.d_factor:
            raise NumericError("render map is rank deficient")  # pragma: no cover
        self.render_map = m.astype(np.float32)
        self.render_pinv = np.linalg.pinv(m)  # float64

    def config(self):
        return asdict(self)

    @classmethod
    def from_config(cls, cfg):
        return config_from_dict(cls, "world", cfg)

    def fourier_features(self, t, h, w):
        t = np.asarray(t, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        return np.stack(
            [
                np.sin(0.35 * t),
                np.cos(0.35 * t),
                np.sin(1.5 * h),
                np.cos(1.5 * h),
                np.sin(1.5 * w),
                np.cos(1.5 * w),
            ],
            axis=-1,
        )


def render_sample(world, id_index, scene_ids, motion_ids, layout, noise_seed):
    if not 0 <= id_index < world.n_ids:
        raise IndexError(f"identity index {id_index} outside pool")
    if len(scene_ids) != layout.shot_count or len(motion_ids) != layout.shot_count:
        raise ConfigError("per-shot id lists must have length S")
    t, h, w = layout.token_positions(j=0.0)
    n = layout.total_tokens
    factors = np.zeros((n, world.d_factor), dtype=np.float64)
    shot_of = layout.token_shot_index()
    factors[:, : world.d_id] = world.ids[id_index]
    o = world.d_id
    for s in range(layout.shot_count):
        rows = shot_of == s
        factors[rows, o : o + world.v_scene] = world.scene_vecs[scene_ids[s]]
        factors[rows, o + world.v_scene : o + world.v_scene + world.v_mot] = (
            world.motion_vecs[motion_ids[s]]
        )
    factors[:, -FOURIER_DIM:] = world.fourier_features(t, h, w)
    tokens = factors @ world.render_map.T.astype(np.float64)
    if world.sigma > 0:
        rng = np.random.default_rng(noise_seed)
        tokens = tokens + world.sigma * rng.standard_normal(tokens.shape)
    return tokens.astype(np.float32)


def decode_factors(tokens, world):
    return np.asarray(tokens, dtype=np.float64) @ world.render_pinv.T


def _shot_means(tokens, world, layout, lo, hi):
    """Decoded factor columns lo:hi averaged over each shot's tokens, [S, hi - lo]."""
    factors = decode_factors(tokens, world)
    shot_of = layout.token_shot_index()
    return np.stack(
        [factors[shot_of == s, lo:hi].mean(axis=0) for s in range(layout.shot_count)]
    )


def decode_identity(tokens, world, layout):
    """Per-shot identity estimates, averaged over each shot's tokens."""
    return _shot_means(tokens, world, layout, 0, world.d_id)


def _nearest(vecs, vocab):
    vn = vecs / (np.linalg.norm(vecs, axis=-1, keepdims=True) + 1e-12)
    sims = vn @ np.asarray(vocab, dtype=np.float64).T
    return np.argmax(sims, axis=-1)


def decode_scene(tokens, world, layout):
    """Nearest-vocabulary scene id per shot."""
    o = world.d_id
    return _nearest(_shot_means(tokens, world, layout, o, o + world.v_scene), world.scene_vecs)


def decode_scene_frames(tokens, world, layout):
    """Nearest-vocabulary scene id per global latent frame."""
    factors = decode_factors(tokens, world)
    o = world.d_id
    scene_part = factors[:, o : o + world.v_scene]
    per_frame = scene_part.reshape(-1, layout.tokens_per_frame, world.v_scene).mean(axis=1)
    return _nearest(per_frame, world.scene_vecs)


def decode_motion(tokens, world, layout):
    o = world.d_id + world.v_scene
    return _nearest(_shot_means(tokens, world, layout, o, o + world.v_mot), world.motion_vecs)


def sample_shot_count(rng, lo, hi):
    """1/3 single-shot, 2/3 spread uniformly over multi-shot counts."""
    if lo == hi:
        return lo
    if lo == 1:
        if rng.uniform() < 1.0 / 3.0:
            return 1
        return int(rng.integers(2, hi + 1))
    return int(rng.integers(lo, hi + 1))


def make_batch(world, batch_size, shot_count_range=(1, 4), shot_len_range=(2, 6), seed=0):
    if shot_count_range[0] > shot_count_range[1] or shot_len_range[0] > shot_len_range[1]:
        raise ConfigError("empty sampling range")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(batch_size):
        s = sample_shot_count(rng, *shot_count_range)
        frames = tuple(int(x) for x in rng.integers(shot_len_range[0], shot_len_range[1] + 1, s))
        layout = ShotLayout(frames, world.height, world.width)
        id_index = int(rng.integers(world.n_ids))
        scene_ids = tuple(int(x) for x in rng.integers(world.v_scene, size=s))
        motion_ids = tuple(int(x) for x in rng.integers(world.v_mot, size=s))
        noise_seed = int(rng.integers(2**62))
        tokens = render_sample(world, id_index, scene_ids, motion_ids, layout, noise_seed)
        captions = CaptionBundle(
            [CaptionEntry(shot=i, scene_id=scene_ids[i], motion_id=motion_ids[i]) for i in range(s)]
        )
        out.append(
            Sample(
                tokens=tokens,
                captions=captions,
                layout=layout,
                id_index=id_index,
                scene_ids=scene_ids,
                motion_ids=motion_ids,
            )
        )
    return out
