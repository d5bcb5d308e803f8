"""Training loop, flow sampler, reference-shot protocol, and metrics."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import model as M
from . import synthetic as S
from . import tensor as T
from .shots import PackedLayout, ShotLayout
from .tensor import ConfigError, GradTape, NumericError, ShapeError, Tensor, config_from_dict


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_size: int = 2
    lr: float = 1e-3
    train_timesteps: int = 1000
    train_shift: float = 5.0
    weight_decay: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    shot_count_range: tuple = (1, 4)
    shot_len_range: tuple = (2, 6)
    pmt2v: bool = False  # identity-conditioning fine-tune mode
    id_dropout: float = 0.1

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1 or self.lr <= 0 or self.seed < 0:
            raise ConfigError("steps, batch size and learning rate must be positive, seed >= 0")
        betas_ok = 0 <= self.beta1 < 1 and 0 <= self.beta2 < 1
        if self.train_timesteps < 1 or self.train_shift < 1 or not betas_ok:
            raise ConfigError("train timesteps must be >= 1, shift >= 1, and betas in [0, 1)")
        self.shot_count_range = tuple(self.shot_count_range)
        self.shot_len_range = tuple(self.shot_len_range)
        for lo_hi in (self.shot_count_range, self.shot_len_range):
            if len(lo_hi) != 2 or not 1 <= lo_hi[0] <= lo_hi[1]:
                raise ConfigError(f"shot ranges must be [lo, hi], 1 <= lo <= hi: {list(lo_hi)}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return config_from_dict(cls, "train", d)


@dataclass
class ShotPrompt:
    frames: int
    scene: int
    motion: int = 0

    def __post_init__(self):
        if self.frames < 1:
            raise ConfigError(f"frame counts must be >= 1, got {self.frames}")


def build_layout(spec, world):
    return ShotLayout(tuple(p.frames for p in spec), world.height, world.width)


def build_captions(spec):
    return S.CaptionBundle(
        [
            S.CaptionEntry(shot=i, scene_id=p.scene, motion_id=p.motion)
            for i, p in enumerate(spec)
        ]
    )


def shift_timesteps(n_steps, shift):
    """Descending tau schedule; fixed points at 1 and 0."""
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    if shift < 1:
        raise ConfigError("shift must be >= 1")
    return shift_map(np.linspace(1.0, 0.0, n_steps + 1), shift)


def shift_map(u, shift):
    """Shifted time of uniform time u: biased towards high noise for shift > 1."""
    return shift * u / (1.0 + (shift - 1.0) * u)


def cfg_velocity(v_cond, v_uncond, g):
    v_cond = np.asarray(v_cond)
    v_uncond = np.asarray(v_uncond)
    if v_cond.shape != v_uncond.shape:
        raise ShapeError("guidance: branch shapes differ")
    return v_uncond + g * (v_cond - v_uncond)


class AdamW:
    """Decoupled weight decay; state keyed by parameter name."""

    def __init__(self, params, cfg):
        self.cfg = cfg
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, params):
        """Update every parameter that has a gradient, in place.

        The step consumes p.grad: it uses the array as scratch and sets
        p.grad to None.
        """
        c = self.cfg
        self.t += 1
        b1c = 1.0 - c.beta1 ** self.t
        b2c = 1.0 - c.beta2 ** self.t
        for name, p in params.items():
            g = p.grad
            if g is None:
                continue
            p.grad = None
            m = self.m[name]
            v = self.v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            g *= g
            g *= 1.0 - c.beta2
            v *= c.beta2
            v += g
            # update = (m / b1c) / (sqrt(v / b2c) + eps) + wd * p, times lr
            update = m / b1c
            denom = v / b2c
            np.sqrt(denom, out=denom)
            denom += c.adam_eps
            update /= denom
            update += c.weight_decay * p.data
            update *= c.lr
            p.data -= update


def _step_rng(seed, step):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(step,)))


def _id_embedding_tensor(params, id_vec):
    row = Tensor(np.asarray(id_vec, dtype=np.float32)[None, :])
    return T.add(T.matmul(row, params["id_proj/w"]), params["id_proj/b"])


def train(model_cfg, train_cfg, world, params=None, log_hook=None):
    """Run the rectified-flow training loop; returns (params, loss_log)."""
    if params is None:
        params = M.init_params(model_cfg, train_cfg.seed)
    opt = AdamW(params, train_cfg)
    log = []
    window = []
    for step in range(train_cfg.steps):
        rng = _step_rng(train_cfg.seed, step)
        batch_seed = int(rng.integers(2**62))
        batch = S.make_batch(
            world,
            train_cfg.batch_size,
            shot_count_range=train_cfg.shot_count_range,
            shot_len_range=train_cfg.shot_len_range,
            seed=batch_seed,
        )
        with GradTape() as tape:
            losses = []
            for sample in batch:
                i_t = int(rng.integers(1, train_cfg.train_timesteps + 1))
                tau = float(shift_map(i_t / train_cfg.train_timesteps, train_cfg.train_shift))
                eps = rng.standard_normal(sample.tokens.shape).astype(np.float32)
                z_tau = M.make_noisy(sample.tokens, eps, tau)
                captions = M.apply_caption_dropout(
                    sample.captions, model_cfg.caption_dropout, rng
                )
                if train_cfg.pmt2v:
                    captions = _attach_training_identity(
                        captions, sample, world, params, train_cfg, rng
                    )
                pred = M.denoiser_forward(
                    z_tau, tau, captions, sample.layout, model_cfg, params
                )
                losses.append(M.rf_loss(pred, sample.tokens, eps))
            total = losses[0]
            for extra in losses[1:]:
                total = T.add(total, extra)
            total = T.scale(total, 1.0 / len(losses))
            loss_val = float(total.data)
            if not np.isfinite(loss_val):
                raise NumericError(f"training diverged at step {step}: loss={loss_val}")
            tape.backward(total)
        opt.step(params)
        window.append(loss_val)
        if len(window) > 50:
            window.pop(0)
        smoothed = float(np.mean(window))
        log.append((step, loss_val, smoothed))
        if log_hook is not None:
            log_hook(step, loss_val, smoothed)
    return params, log


def _attach_training_identity(captions, sample, world, params, train_cfg, rng):
    if rng.uniform() < train_cfg.id_dropout:
        id_row = params["caption/null_id"]
    else:
        id_row = _id_embedding_tensor(params, world.ids[sample.id_index])
    return captions.replace_entries(lambda e: {"id_vector": id_row})


def condition_identity(captions, id_embedding):
    """Prepend an identity token to every shot's caption sequence."""
    id_embedding = np.asarray(id_embedding, dtype=np.float32)
    if id_embedding.ndim != 1:
        raise ShapeError("identity embedding must be a vector")
    id_row = Tensor(id_embedding[None, :])
    return captions.replace_entries(lambda e: {"id_vector": id_row})


def identity_embedding(params, world, id_index):
    """Project a pool identity into the caption embedding space."""
    return _id_embedding_tensor(params, world.ids[id_index]).data[0]


def null_captions(captions):
    return captions.replace_entries(lambda e: {"id_vector": None, "dropped": True})


def _integrate(params, cfg, z, layout, captions, uncond, steps, shift, guidance):
    """Euler integration of the guided velocity field from z at tau = 1."""
    taus = shift_timesteps(steps, shift)
    for i in range(steps):
        tau = float(taus[i])
        v_c = M.denoiser_forward(z, tau, captions, layout, cfg, params).data
        if guidance == 1.0:
            v = v_c
        else:
            v_u = M.denoiser_forward(z, tau, uncond, layout, cfg, params).data
            v = cfg_velocity(v_c, v_u, guidance)
        dtau = float(taus[i + 1] - taus[i])
        z = (z + np.float32(dtau) * v.astype(np.float32)).astype(np.float32)
    return z


def sample(
    params,
    cfg,
    world,
    spec,
    steps=50,
    shift=5.0,
    guidance=5.0,
    seed=0,
    init_noise=None,
    id_embedding=None,
):
    """Euler integration of the guided velocity field from pure noise."""
    layout = build_layout(spec, world)
    captions = build_captions(spec)
    if id_embedding is not None:
        captions = condition_identity(captions, id_embedding)
    uncond = null_captions(captions)
    if init_noise is None:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        z = rng.standard_normal((layout.total_tokens, world.d_token)).astype(np.float32)
    else:
        z = np.asarray(init_noise, dtype=np.float32).copy()
        if z.shape != (layout.total_tokens, world.d_token):
            raise ShapeError("init noise shape does not match spec layout")
    return _integrate(params, cfg, z, layout, captions, uncond, steps, shift, guidance)


def sample_infinite(
    params,
    cfg,
    world,
    ref_prompt,
    ref_noise,
    new_specs,
    seed=0,
    steps=50,
    shift=5.0,
    guidance=5.0,
    id_embedding=None,
):
    """Fixed-reference generation: shot 0 is constant across attempts.

    Each attempt samples [ref_prompt] + its extra shots, exactly as
    `sample` would from the same noise.  All attempts are integrated
    together, one step at a time, in one PackedLayout field that holds
    shot 0 once; an attempt that adds no shot is an empty segment of it
    and returns that shot 0.
    """
    if not cfg.use_ref:
        raise ConfigError("sample_infinite requires the full+refattn variant")
    ref_noise = np.asarray(ref_noise, dtype=np.float32)
    n0 = ref_prompt.frames * world.height * world.width
    if ref_noise.shape != (n0, world.d_token):
        raise ShapeError("reference noise shape does not match reference prompt")
    specs = [[ref_prompt] + list(extra) for extra in new_specs]
    if not specs:
        return []
    packed = PackedLayout(tuple(build_layout(spec, world) for spec in specs))
    noise = [ref_noise]
    captions = []
    for a, (spec, layout) in enumerate(zip(specs, packed.layouts)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(a,)))
        noise.append(
            rng.standard_normal((layout.total_tokens - n0, world.d_token)).astype(np.float32)
        )
        bundle = build_captions(spec)
        if id_embedding is not None:
            bundle = condition_identity(bundle, id_embedding)
        captions.append(bundle)
    z = _integrate(
        params, cfg, np.concatenate(noise, axis=0), packed, tuple(captions),
        tuple(null_captions(c) for c in captions), steps, shift, guidance,
    )
    return packed.unpack(z)


# the oracle metrics of metrics_on_field, in the order reports list them
METRIC_KEYS = ("identity_consistency", "scene_adherence", "cut_accuracy")


def metrics_on_field(tokens, spec, layout, world):
    """The three synthetic-oracle metrics for one generated field."""
    ids = S.decode_identity(tokens, world, layout)
    n = layout.shot_count
    if n > 1:
        norm = ids / (np.linalg.norm(ids, axis=1, keepdims=True) + 1e-12)
        sims = norm @ norm.T
        iu = np.triu_indices(n, k=1)
        identity = float(sims[iu].mean())
    else:
        identity = 1.0
    scenes = S.decode_scene(tokens, world, layout)
    wanted = np.array([p.scene for p in spec])
    adherence = float(np.mean(scenes == wanted))
    frame_scenes = S.decode_scene_frames(tokens, world, layout)
    boundaries = set(np.cumsum(layout.frame_counts)[:-1].tolist())
    changes = set((np.nonzero(np.diff(frame_scenes))[0] + 1).tolist())
    cut = float(changes == boundaries)
    return dict(zip(METRIC_KEYS, (identity, adherence, cut)))


def mean_metrics(records):
    """The mean of each oracle metric over metrics_on_field records."""
    return {key: float(np.mean([r[key] for r in records])) for key in METRIC_KEYS}


def identity_match(tokens, world, layout, id_index):
    """Whether the nearest pool identity to the field's decoded identity,
    averaged over its shots, is id_index."""
    mean_id = S.decode_identity(tokens, world, layout).mean(axis=0)
    return int(np.argmax(world.ids @ mean_id)) == id_index


def eval_specs(world, n_samples, seed, shot_count=3, frame_range=(2, 4)):
    """Fixed evaluation prompts: distinct scenes across shots."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(10**6,)))
    specs = []
    for _ in range(n_samples):
        scenes = rng.choice(world.v_scene, size=shot_count, replace=False)
        motions = rng.integers(world.v_mot, size=shot_count)
        frames = rng.integers(frame_range[0], frame_range[1] + 1, size=shot_count)
        specs.append(
            [
                ShotPrompt(frames=int(f), scene=int(sc), motion=int(mo))
                for f, sc, mo in zip(frames, scenes, motions)
            ]
        )
    return specs


def evaluate(
    params,
    cfg,
    world,
    n_samples=32,
    seed=0,
    steps=50,
    shift=5.0,
    guidance=5.0,
    shot_count=3,
    frame_range=(2, 4),
    use_identity=False,
):
    """Oracle metrics over a fixed seeded prompt set.

    With use_identity=True each prompt is additionally conditioned on a
    seeded identity drawn from the world's pool (requires a model trained
    with identity conditioning).
    """
    specs = eval_specs(world, n_samples, seed, shot_count, frame_range)
    id_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(10**6 + 1,)))
    records = []
    matches = []
    for i, spec in enumerate(specs):
        id_emb = None
        id_index = None
        if use_identity:
            id_index = int(id_rng.integers(world.n_ids))
            id_emb = identity_embedding(params, world, id_index)
        layout = build_layout(spec, world)
        tokens = sample(
            params, cfg, world, spec,
            steps=steps, shift=shift, guidance=guidance, seed=seed + 7919 * (i + 1),
            id_embedding=id_emb,
        )
        records.append(metrics_on_field(tokens, spec, layout, world))
        if use_identity:
            matches.append(identity_match(tokens, world, layout, id_index))
    out = mean_metrics(records)
    if use_identity:
        out["identity_match"] = float(np.mean(matches))
    out["n_samples"] = n_samples
    out["seed"] = seed
    return out
