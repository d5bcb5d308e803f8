"""Oracle-checkable synthetic multi-shot token data.

Each sample shares one identity vector across shots; scene and motion
are discrete per-shot caption ids.  Tokens are a fixed full-rank linear
render of [identity | scene | motion | position features] plus optional
gaussian noise, so a pseudo-inverse recovers every factor exactly from
clean tokens.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .shots import ShotLayout
from .tensor import ConfigError, NumericError, Tensor, config_from_dict, seeded_rng

FOURIER_DIM = 6


@dataclass
class ShotPrompt:
    """What one shot holds: its latent frames, scene and motion."""

    frames: int
    scene: int
    motion: int = 0

    def __post_init__(self):
        if self.frames < 1:
            raise ConfigError(f"frame counts must be >= 1, got {self.frames}")


@dataclass
class CaptionBundle:
    """The captions of one sample: shot s is shots[s], a ShotPrompt.  A shot in
    dropped captions as the null row; every kept shot's caption starts with
    id_row, the one [1, d_model] identity row, when there is one."""

    shots: tuple
    dropped: frozenset = frozenset()
    id_row: Tensor | None = None

    @property
    def shot_count(self):
        return len(self.shots)


def build_layout(spec, world):
    """The layout of a spec, a list of ShotPrompts, on the world's grid."""
    return ShotLayout(tuple(p.frames for p in spec), world.height, world.width)


def build_captions(spec):
    return CaptionBundle(tuple(spec))


@dataclass
class Sample:
    tokens: np.ndarray  # clean latent tokens [N, d_token]
    captions: CaptionBundle
    layout: ShotLayout
    id_index: int


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
        if self.seed < 0 or min(sizes) < 1 or self.sigma < 0:
            raise ConfigError("world seed and sigma must be >= 0 and its sizes and grid >= 1")
        rng = seeded_rng(self.seed)
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


def render_sample(world, id_index, spec, noise_seed):
    """Tokens of identity id_index in the shots of spec, on the world's grid."""
    if not 0 <= id_index < world.n_ids:
        raise IndexError(f"identity index {id_index} outside pool")
    layout = build_layout(spec, world)
    t, h, w = layout.token_positions(j=0.0)
    n = layout.total_tokens
    factors = np.zeros((n, world.d_factor), dtype=np.float64)
    shot_of = layout.token_shot_index()
    factors[:, : world.d_id] = world.ids[id_index]
    o = world.d_id
    for s, p in enumerate(spec):
        rows = shot_of == s
        factors[rows, o : o + world.v_scene] = world.scene_vecs[p.scene]
        factors[rows, o + world.v_scene : o + world.v_scene + world.v_mot] = (
            world.motion_vecs[p.motion]
        )
    factors[:, -FOURIER_DIM:] = world.fourier_features(t, h, w)
    tokens = factors @ world.render_map.T.astype(np.float64)
    if world.sigma > 0:
        tokens = tokens + world.sigma * seeded_rng(noise_seed).standard_normal(tokens.shape)
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
    rng = seeded_rng(seed)
    out = []
    for _ in range(batch_size):
        s = sample_shot_count(rng, *shot_count_range)
        frames = rng.integers(shot_len_range[0], shot_len_range[1] + 1, s)
        id_index = int(rng.integers(world.n_ids))
        scenes = rng.integers(world.v_scene, size=s)
        motions = rng.integers(world.v_mot, size=s)
        noise_seed = int(rng.integers(2**62))
        spec = [ShotPrompt(int(f), int(sc), int(mo)) for f, sc, mo in zip(frames, scenes, motions)]
        tokens = render_sample(world, id_index, spec, noise_seed)
        out.append(Sample(tokens, build_captions(spec), build_layout(spec, world), id_index))
    return out
