"""Training loop, flow sampler, reference-shot protocol, and metrics."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import model as M
from . import synthetic as S
from . import tensor as T
from .shots import PackedLayout
from .synthetic import ShotPrompt, build_captions, build_layout
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
        # train draws a timestep as an int64 in [1, train_timesteps]
        if not 1 <= self.train_timesteps <= 2**63 - 1 or self.train_shift < 1 or not betas_ok:
            raise ConfigError(f"train timesteps must lie in [1, {2**63 - 1}] (int64), "
                              "shift >= 1, and betas in [0, 1)")
        if self.adam_eps <= 0 or self.weight_decay < 0 or not 0 <= self.id_dropout <= 1:
            raise ConfigError("adam_eps must be > 0, weight_decay >= 0, id_dropout in [0, 1]")
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


def shift_timesteps(n_steps, shift):
    """Descending tau schedule; fixed points at 1 and 0."""
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    if not 1 <= shift < np.inf:
        raise ConfigError(f"shift must be finite and >= 1, got {shift}")
    return shift_map(np.linspace(1.0, 0.0, n_steps + 1), shift)


def shift_map(u, shift):
    """Shifted time of uniform time u: biased towards high noise for shift > 1."""
    return shift * u / (1.0 + (shift - 1.0) * u)


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


def train(model_cfg, train_cfg, world, params=None, log_hook=None):
    """Run the rectified-flow training loop; returns (params, loss_log).

    Each step draws every sample's timestep, noise and dropouts in sample order,
    then runs the samples last to first, each forward and backward on a tape of
    its own: one sample's activations are alive at a time, and each .grad takes
    its `+=` in the order one tape over the batch would replay them, so the
    gradients are that tape's bits.  A step that raises leaves no .grad behind.
    A non-finite loss raises NumericError at its step; after the last step,
    whose update no loss reads, a non-finite parameter raises it too.
    """
    if params is None:
        params = M.init_params(model_cfg, train_cfg.seed)
    opt = AdamW(params, train_cfg)
    log = []
    for step in range(train_cfg.steps):
        rng = T.seeded_rng(train_cfg.seed, step)
        batch_seed = int(rng.integers(2**62))
        batch = S.make_batch(
            world,
            train_cfg.batch_size,
            shot_count_range=train_cfg.shot_count_range,
            shot_len_range=train_cfg.shot_len_range,
            seed=batch_seed,
        )
        draws = []
        for sample in batch:
            i_t = int(rng.integers(1, train_cfg.train_timesteps + 1))
            tau = float(shift_map(i_t / train_cfg.train_timesteps, train_cfg.train_shift))
            eps = rng.standard_normal(sample.tokens.shape).astype(np.float32)
            captions = M.apply_caption_dropout(sample.captions, model_cfg.caption_dropout, rng)
            null_id = train_cfg.pmt2v and rng.uniform() < train_cfg.id_dropout
            draws.append((sample, tau, eps, captions, null_id))
        losses = []
        try:
            for sample, tau, eps, captions, null_id in reversed(draws):
                with GradTape() as tape:
                    if train_cfg.pmt2v:
                        id_row = (params["caption/null_id"] if null_id
                                  else identity_embedding(params, world, sample.id_index))
                        captions = condition_identity(captions, id_row)
                    z_tau = M.make_noisy(sample.tokens, eps, tau)
                    pred = M.denoiser_forward(
                        z_tau, tau, captions, sample.layout, model_cfg, params
                    )
                    loss = M.rf_loss(pred, sample.tokens, eps)
                    tape.backward(T.scale(loss, 1.0 / len(batch)))
                losses.insert(0, loss)
            total = losses[0]
            for extra in losses[1:]:
                total = T.add(total, extra)
            loss_val = float(T.scale(total, 1.0 / len(losses)).data)
            if not np.isfinite(loss_val):
                raise NumericError(f"training diverged at step {step}: loss={loss_val}")
        except BaseException:
            for p in params.values():
                p.grad = None
            raise
        opt.step(params)
        smoothed = float(np.mean([row[1] for row in log[-49:]] + [loss_val]))  # last 50 losses
        log.append((step, loss_val, smoothed))
        if log_hook is not None:
            log_hook(step, loss_val, smoothed)
    diverged = [name for name, p in params.items() if not np.isfinite(p.data).all()]
    if diverged:
        raise NumericError(
            f"training diverged at step {train_cfg.steps - 1}: "
            f"{len(diverged)} of {len(params)} parameters are not finite, e.g. {diverged[0]}"
        )
    return params, log


def identity_embedding(params, world, id_index):
    """The [1, d_model] caption row of pool identity id_index: its vector
    projected into the caption embedding space, on the tape when one is open."""
    row = Tensor(world.ids[id_index][None, :])
    return T.add(T.matmul(row, params["id_proj/w"]), params["id_proj/b"])


def condition_identity(captions, id_row):
    """The bundle whose every kept caption starts with id_row, a [1, d_model]
    identity row Tensor; caption_context checks its shape."""
    return replace(captions, id_row=id_row)


def _sample_fields(params, cfg, world, specs, z, steps, shift, guidance, id_embedding):
    """Euler integration of the guided velocity field from z at tau = 1, the
    specs run as one field packed from their layouts, one forward a step;
    one field per spec.  The conditioning every step reads is built once.
    A step that leaves a non-finite field raises NumericError."""
    if not abs(guidance) <= float(np.finfo(np.float32).max):  # also refuses NaN
        raise ConfigError(f"guidance must be finite in float32, got {guidance}")
    packed = PackedLayout(tuple(build_layout(spec, world) for spec in specs))
    captions = tuple(build_captions(spec) for spec in specs)
    if id_embedding is not None:
        captions = tuple(condition_identity(c, id_embedding) for c in captions)
    taus = shift_timesteps(steps, shift)
    cond = M.conditioning(captions, packed, cfg, params, guidance)
    for i in range(steps):
        tau = float(taus[i])
        v = M.denoiser_forward(
            z, tau, captions, packed, cfg, params, guidance=guidance, cond=cond
        ).data
        dtau = float(taus[i + 1] - taus[i])
        z = (z + np.float32(dtau) * v.astype(np.float32)).astype(np.float32)
        if not np.isfinite(z).all():
            raise NumericError(f"sampling step {i} of {steps} left a non-finite field")
    return packed.unpack(z)


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
    n_tokens = build_layout(spec, world).total_tokens
    if init_noise is None:
        z = T.seeded_rng(seed).standard_normal((n_tokens, world.d_token)).astype(np.float32)
    else:
        z = np.asarray(init_noise, dtype=np.float32).copy()
        if z.shape != (n_tokens, world.d_token):
            raise ShapeError("init noise shape does not match spec layout")
    return _sample_fields(params, cfg, world, [spec], z, steps, shift, guidance, id_embedding)[0]


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
    n0 = build_layout([ref_prompt], world).total_tokens
    if ref_noise.shape != (n0, world.d_token):
        raise ShapeError("reference noise shape does not match reference prompt")
    specs = [[ref_prompt] + list(extra) for extra in new_specs]
    if not specs:
        return []
    noise = [ref_noise]
    for a, spec in enumerate(specs):
        rng = T.seeded_rng(seed, a)
        n_new = build_layout(spec, world).total_tokens - n0
        noise.append(rng.standard_normal((n_new, world.d_token)).astype(np.float32))
    z = np.concatenate(noise, axis=0)
    return _sample_fields(params, cfg, world, specs, z, steps, shift, guidance, id_embedding)


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


def eval_specs(world, n_samples, seed, frame_range=(2, 4)):
    """Fixed evaluation prompts of three shots: distinct scenes across shots."""
    if n_samples < 1:
        raise ConfigError(f"evaluation needs at least one prompt, got n_samples={n_samples}")
    shots = 3
    if world.v_scene < shots:
        raise ConfigError(f"evaluation prompts need {shots} scenes, the world has {world.v_scene}")
    rng = T.seeded_rng(seed, 10**6)
    specs = []
    for _ in range(n_samples):
        scenes = rng.choice(world.v_scene, size=shots, replace=False)
        motions = rng.integers(world.v_mot, size=shots)
        frames = rng.integers(frame_range[0], frame_range[1] + 1, size=shots)
        specs.append(
            [
                ShotPrompt(frames=int(f), scene=int(sc), motion=int(mo))
                for f, sc, mo in zip(frames, scenes, motions)
            ]
        )
    return specs


def evaluate(params, cfg, world, n_samples=32, seed=0, steps=50, use_identity=False):
    """Oracle metrics over a fixed seeded prompt set.

    With use_identity=True each prompt is additionally conditioned on a
    seeded identity drawn from the world's pool (requires a model trained
    with identity conditioning).
    """
    specs = eval_specs(world, n_samples, seed)
    id_rng = T.seeded_rng(seed, 10**6 + 1)
    records = []
    matches = []
    for i, spec in enumerate(specs):
        id_emb = id_index = None
        if use_identity:
            id_index = int(id_rng.integers(world.n_ids))
            id_emb = identity_embedding(params, world, id_index)
        layout = build_layout(spec, world)
        tokens = sample(
            params, cfg, world, spec, steps=steps, seed=seed + 7919 * (i + 1), id_embedding=id_emb
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
