"""The three benchmark workloads, their inputs and their output checks.

Every timed call goes into shotrope's public API.  Inputs are derived
from the run's seed alone; the sample and continue workloads also read
the fixed weights in perfbench/weights.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time

import numpy as np

from shotrope import checkpoint as C
from shotrope import engine as E
from shotrope import model as M
from shotrope import synthetic as S
from shotrope import tensor as T
from shotrope.tensor import ConfigError, NumericError, ShapeError, Tensor

import spans

WEIGHTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "weights")
WEIGHT_SHA256 = {
    "full.ecsh": "3df17b0b63d0f186352b3f556fd801f06bba935daefd21061e60ed5c5e42d441",
    "full_idft.ecsh": "25adc2436f422660e518f0bc320e8e6afde9c7903c56b87488a1d26f4c3198ce",
}
PROGRAM_ERRORS = (ConfigError, NumericError, ShapeError)
SETUP_REPEATS = 3

# guided sampling settings of engine.evaluate
STEPS, SHIFT, GUIDANCE = 50, 5.0, 5.0


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing or altered fixed inputs)."""


def derive(seed, *keys):
    """A 32-bit seed for one input, from the run seed and a key path."""
    return int(np.random.SeedSequence(seed, spawn_key=keys).generate_state(1)[0])


def verify_weights():
    for name, want in WEIGHT_SHA256.items():
        path = os.path.join(WEIGHTS, name)
        try:
            with open(path, "rb") as fh:
                got = hashlib.sha256(fh.read()).hexdigest()
        except FileNotFoundError as exc:
            raise BenchmarkError(f"fixed weights missing: {path}") from exc
        if got != want:
            raise BenchmarkError(f"fixed weights altered: {path} has sha256 {got}")


def load_weights(name, variant=None):
    tensors, config = C.load_checkpoint(os.path.join(WEIGHTS, name))
    model_cfg = dict(config["model"])
    if variant is not None:
        model_cfg["variant"] = variant
    params = {n: Tensor(a, requires_grad=True) for n, a in tensors.items()}
    return params, M.DenoiserConfig.from_dict(model_cfg), S.SyntheticWorld.from_config(config["world"])


def _forward_once(params, cfg, world, spec, id_embedding=None):
    layout = E.build_layout(spec, world)
    captions = E.build_captions(spec)
    if id_embedding is not None:
        captions = E.condition_identity(captions, id_embedding)
    z = np.zeros((layout.total_tokens, world.d_token), dtype=np.float32)
    M.denoiser_forward(z, 0.5, captions, layout, cfg, params)


class SpeedProbe:
    """A fixed piece of numpy work that does not touch shotrope, run
    between operations to follow the machine's speed during a run.

    On a shared machine the same work runs 10-25 % slower or faster from
    one minute to the next, and the probe slows and speeds up with it.
    Run times are scaled by REF_S / (median probe time) so that runs made
    at different moments can be compared.
    """

    REF_S = 0.0136  # median probe time on the reference machine (README)
    SHARE = 0.02  # probe for about this share of the time between probes

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((144, 512)).astype(np.float32)
        self.w = (rng.standard_normal((512, 512)) * 0.04).astype(np.float32)
        self.samples = []
        self.last = time.perf_counter()

    def once(self):
        t0 = time.perf_counter()
        y = self.x
        for _ in range(2):
            y = np.tanh(y @ self.w) + np.exp(-y * y) * y ** 3
        self.samples.append(time.perf_counter() - t0)

    def __call__(self):
        """Probe at least twice, and for SHARE of the time since the last probe."""
        t0 = time.perf_counter()
        budget = self.SHARE * (t0 - self.last)
        self.once()
        self.once()
        while time.perf_counter() - t0 < budget:
            self.once()
        self.last = time.perf_counter()

    def factor(self):
        return self.REF_S / statistics.median(self.samples)


class Run:
    """Timings and outputs of one pass over a workload's operations."""

    def __init__(self):
        self.times = []  # seconds per operation
        self.tokens = []  # tokens per operation
        self.outputs = []
        self.failed = 0
        self.wall = 0.0

    @property
    def attempted(self):
        return len(self.times) + self.failed


class OpWorkload:
    """A workload made of independent operations, run in whole rounds."""

    round_size = 1

    def __init__(self, seed):
        self.seed = seed

    def run(self, seconds=None, n_ops=None, probe=None):
        """Run whole rounds until `seconds` have passed, or exactly n_ops;
        probe the machine's speed before and after every operation."""
        r = Run()
        start = time.perf_counter()
        if probe is not None:
            probe()
        i = 0
        while True:
            if n_ops is not None:
                if i >= n_ops:
                    break
            elif i and i % self.round_size == 0 and time.perf_counter() - start >= seconds:
                break
            args = self.inputs(i)
            t0 = time.perf_counter()
            try:
                out, tokens = self.op(*args)
            except PROGRAM_ERRORS as exc:
                print(f"op {i} failed: {exc!r}")
                r.failed += 1
            else:
                r.times.append(time.perf_counter() - t0)
                r.tokens.append(tokens)
                r.outputs.append(out)
            if probe is not None:
                probe()
            i += 1
        r.wall = time.perf_counter() - start
        return r


class SampleWorkload(OpWorkload):
    """Guided 50-step Euler sampling of evaluation prompts, then scoring.

    A round is three fields of three shots each, with 2, 3 and 4 frames
    per shot (96, 144 and 192 tokens): the smallest, middle and largest
    field of engine.eval_specs.  Scenes, motions and noise come from the
    seed.
    """

    name = "sample"
    round_size = 3
    FRAMES = (2, 3, 4)

    weights = "full.ecsh"

    def setup(self):
        self.params, self.cfg, self.world = load_weights(self.weights)
        _forward_once(self.params, self.cfg, self.world, E.eval_specs(self.world, 1, 0)[0])

    def inputs(self, i):
        rnd, f = divmod(i, self.round_size)
        frames = self.FRAMES[f]
        spec = E.eval_specs(self.world, 1, derive(self.seed, rnd, f), frame_range=(frames, frames))[0]
        return spec, derive(self.seed, rnd, f, 1)

    def op(self, spec, noise_seed):
        tokens = E.sample(
            self.params, self.cfg, self.world, spec,
            steps=STEPS, shift=SHIFT, guidance=GUIDANCE, seed=noise_seed,
        )
        layout = E.build_layout(spec, self.world)
        scores = E.metrics_on_field(tokens, spec, layout, self.world)
        return (tokens, scores, layout), layout.total_tokens

    def check(self, r):
        problems = []
        for tokens, _, layout in r.outputs:
            if tokens.shape != (layout.total_tokens, self.world.d_token):
                problems.append(f"field shape {tokens.shape}")
            if not np.isfinite(tokens).all():
                problems.append("non-finite field")
        scores = [s for _, s, _ in r.outputs]
        detail = {}
        for key in ("scene_adherence", "cut_accuracy"):
            detail[key] = float(np.mean([s[key] for s in scores]))
            if detail[key] < 0.9:
                problems.append(f"{key} {detail[key]:.3f} < 0.9")
        return problems, detail

    @staticmethod
    def same_outputs(a, b):
        return all(np.array_equal(x[0], y[0]) for x, y in zip(a.outputs, b.outputs))


class ContinueWorkload(OpWorkload):
    """One engine.sample_infinite call per operation: a 3-frame reference
    shot conditioned on a pool identity, continued by three attempts that
    add one shot of 2, 3 and 4 frames, in seeded order.

    Three attempts rather than more keep a call near 11 s, so a run holds
    several calls and the speed probe gets a window between each."""

    name = "continue"
    ATTEMPT_FRAMES = (2, 3, 4)
    REF_FRAMES = 3

    weights = "full_idft.ecsh"

    def setup(self):
        self.params, self.cfg, self.world = load_weights(self.weights, variant="full+refattn")
        spec = [E.ShotPrompt(self.REF_FRAMES, 0), E.ShotPrompt(2, 1)]
        emb = E.identity_embedding(self.params, self.world, 0)
        _forward_once(self.params, self.cfg, self.world, spec, id_embedding=emb)

    def inputs(self, i):
        w = self.world
        rng = np.random.default_rng(derive(self.seed, i))
        ref_scene = int(rng.integers(w.v_scene))
        ref = E.ShotPrompt(self.REF_FRAMES, ref_scene, int(rng.integers(w.v_mot)))
        n0 = self.REF_FRAMES * w.height * w.width
        ref_noise = rng.standard_normal((n0, w.d_token)).astype(np.float32)
        others = [s for s in range(w.v_scene) if s != ref_scene]
        attempts = [
            [E.ShotPrompt(int(f), int(rng.choice(others)), int(rng.integers(w.v_mot)))]
            for f in rng.permutation(self.ATTEMPT_FRAMES)
        ]
        id_index = int(rng.integers(w.n_ids))
        return ref, ref_noise, attempts, id_index, derive(self.seed, i, 1)

    def op(self, ref, ref_noise, attempts, id_index, noise_seed):
        emb = E.identity_embedding(self.params, self.world, id_index)
        fields = E.sample_infinite(
            self.params, self.cfg, self.world, ref, ref_noise, attempts,
            seed=noise_seed, steps=STEPS, shift=SHIFT, guidance=GUIDANCE, id_embedding=emb,
        )
        layouts = [E.build_layout([ref] + a, self.world) for a in attempts]
        return (fields, layouts), sum(lay.total_tokens for lay in layouts)

    def check(self, r):
        problems = []
        cosines = []
        n0 = self.REF_FRAMES * self.world.height * self.world.width
        for fields, layouts in r.outputs:
            for tokens, layout in zip(fields, layouts):
                if tokens.shape != (layout.total_tokens, self.world.d_token):
                    problems.append(f"field shape {tokens.shape}")
                    continue
                if not np.isfinite(tokens).all():
                    problems.append("non-finite field")
                    continue
                if not np.array_equal(tokens[:n0], fields[0][:n0]):
                    problems.append("shot-0 rows differ between attempts")
                ids = S.decode_identity(tokens, self.world, layout)
                cos = ids[1:] @ ids[0] / (np.linalg.norm(ids[1:], axis=1) * np.linalg.norm(ids[0]))
                cosines.extend(cos.tolist())
        detail = {"identity_cosine": float(np.mean(cosines)) if cosines else float("nan")}
        if not detail["identity_cosine"] >= 0.85:
            problems.append(f"identity cosine {detail['identity_cosine']:.3f} < 0.85")
        return problems, detail

    @staticmethod
    def same_outputs(a, b):
        return all(
            all(np.array_equal(f, g) for f, g in zip(x[0], y[0]))
            for x, y in zip(a.outputs, b.outputs)
        )


class _TimeUp(Exception):
    pass


class TrainWorkload:
    """engine.train from model.init_params, variant full, batch 2, on
    SyntheticWorld(seed=1); an operation is one train step.

    The run seed draws the initial weights (and the checks' batch and
    directions).  engine.train draws layouts, noise and timesteps from its
    train seed, which is pinned at 7, so that every run does the same work
    per step: layouts of 1-4 shots of 2-6 frames, 64-688 tokens a step.
    """

    name = "train"
    MIN_STEPS = 30
    TRAIN_SEED = 7
    PROBE_EVERY_S = 2.0

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.world = S.SyntheticWorld(seed=1)
        self.cfg = M.DenoiserConfig(variant="full")
        self.init = M.init_params(self.cfg, self.seed)
        warm = self._fresh_params()
        E.train(self.cfg, self._train_cfg(2), self.world, params=warm)

    def _fresh_params(self):
        return {n: Tensor(p.data.copy(), requires_grad=True) for n, p in self.init.items()}

    def _train_cfg(self, steps):
        return E.TrainConfig(steps=steps, seed=self.TRAIN_SEED)

    def run(self, seconds=None, n_ops=None, probe=None):
        """Train until `seconds` have passed (at least MIN_STEPS), or for
        exactly n_ops steps; each step is timed from the log hook, which
        also probes the machine's speed every PROBE_EVERY_S seconds."""
        r = Run()
        params = self._fresh_params()
        losses = []
        last = [0.0]

        def hook(step, loss, smoothed):
            now = time.perf_counter()
            r.times.append(now - last[0])
            losses.append(loss)
            if n_ops is None and step + 1 >= self.MIN_STEPS and now - start >= seconds:
                raise _TimeUp
            if probe is not None and now - probe.last >= self.PROBE_EVERY_S:
                probe()
                now = time.perf_counter()
            last[0] = now

        steps = n_ops if n_ops is not None else 10**9
        start = time.perf_counter()
        if probe is not None:
            probe()
        last[0] = time.perf_counter()
        try:
            E.train(self.cfg, self._train_cfg(steps), self.world, params=params, log_hook=hook)
        except _TimeUp:
            pass
        except PROGRAM_ERRORS as exc:
            print(f"train step {len(r.times)} failed: {exc!r}")
            r.failed += 1
        r.wall = time.perf_counter() - start
        r.tokens = [self.step_tokens(step) for step in range(len(r.times))]
        r.outputs = [losses, params]
        return r

    def step_tokens(self, step):
        """Batch tokens of one step, drawn as engine.train draws them."""
        c = self._train_cfg(1)
        rng = np.random.default_rng(np.random.SeedSequence(c.seed, spawn_key=(step,)))
        batch = S.make_batch(
            self.world, c.batch_size, shot_count_range=c.shot_count_range,
            shot_len_range=c.shot_len_range, seed=int(rng.integers(2**62)),
        )
        return sum(s.layout.total_tokens for s in batch)

    def check(self, r):
        problems = []
        losses, params = r.outputs
        if not np.all(np.isfinite(losses)):
            problems.append("non-finite loss")
        tenth = max(1, len(losses) // 10)
        first, last = float(np.mean(losses[:tenth])), float(np.mean(losses[-tenth:]))
        if not last < first:
            problems.append(f"loss did not fall: first tenth {first:.4f}, last tenth {last:.4f}")
        grad_err = self.gradient_error(params)
        if not grad_err < 1e-4:
            problems.append(f"tape gradient off a central difference by {grad_err:.2e}")
        adamw_err = self.adamw_error(params)
        if not adamw_err < 1e-4:
            problems.append(f"AdamW.step off the AdamW formula by {adamw_err:.2e}")
        detail = {
            "loss_first_tenth": first, "loss_last_tenth": last,
            "grad_rel_err": grad_err, "adamw_rel_err": adamw_err,
        }
        return problems, detail

    def _batch_loss(self, params, batch, draws):
        total = None
        for sample, (tau, eps) in zip(batch, draws):
            z_tau = Tensor((1.0 - tau) * sample.tokens.astype(np.float64) + tau * eps, dtype=np.float64)
            pred = M.denoiser_forward(z_tau, tau, sample.captions, sample.layout, self.cfg, params)
            loss = M.rf_loss(pred, sample.tokens, eps)
            total = loss if total is None else T.add(total, loss)
        return T.scale(total, 1.0 / len(batch))

    def gradient_error(self, params):
        """Relative gap between the tape's directional derivative of one
        batch's loss (parameters in float64) and a central difference."""
        rng = np.random.default_rng(derive(self.seed, 2))
        batch = S.make_batch(self.world, 2, seed=derive(self.seed, 3))
        draws = [(float(rng.uniform(0.05, 0.95)), rng.standard_normal(s.tokens.shape)) for s in batch]
        p64 = {n: Tensor(p.data.astype(np.float64), requires_grad=True) for n, p in params.items()}
        direction = {n: rng.standard_normal(p.shape) for n, p in p64.items()}
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        direction = {n: d / norm for n, d in direction.items()}
        with T.GradTape() as tape:
            loss = self._batch_loss(p64, batch, draws)
            tape.backward(loss)
        # parameters the batch does not reach (identity slots) have no gradient
        analytic = sum(
            float(np.sum(p64[n].grad * d)) for n, d in direction.items() if p64[n].grad is not None
        )
        h = 1e-3

        def shifted(sign):
            moved = {n: Tensor(p.data + sign * h * direction[n]) for n, p in p64.items()}
            return float(self._batch_loss(moved, batch, draws).data)

        numeric = (shifted(1.0) - shifted(-1.0)) / (2.0 * h)
        return abs(analytic - numeric) / max(abs(numeric), 1e-12)

    def adamw_error(self, params):
        """Largest gap, relative to the step size, between three AdamW
        steps and the AdamW formula evaluated here in float64."""
        cfg = E.TrainConfig(lr=1e-3, weight_decay=0.1)
        rng = np.random.default_rng(derive(self.seed, 4))
        live = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in params.items()}
        m = {n: np.zeros(p.shape) for n, p in live.items()}
        v = {n: np.zeros(p.shape) for n, p in live.items()}
        opt = E.AdamW(live, cfg)
        worst = 0.0
        for t in range(1, 4):
            grads = {n: rng.standard_normal(p.shape).astype(np.float32) for n, p in live.items()}
            before = {n: p.data.astype(np.float64) for n, p in live.items()}
            for n, p in live.items():
                p.grad = grads[n].copy()
            opt.step(live)
            for n, p in live.items():
                g = grads[n].astype(np.float64)
                m[n] = cfg.beta1 * m[n] + (1 - cfg.beta1) * g
                v[n] = cfg.beta2 * v[n] + (1 - cfg.beta2) * g * g
                mhat = m[n] / (1 - cfg.beta1**t)
                vhat = v[n] / (1 - cfg.beta2**t)
                want = -cfg.lr * (mhat / (np.sqrt(vhat) + cfg.adam_eps) + cfg.weight_decay * before[n])
                got = p.data.astype(np.float64) - before[n]
                worst = max(worst, float(np.max(np.abs(got - want) / (np.abs(want) + cfg.lr))))
                if p.grad is not None:
                    worst = float("inf")  # the step must consume the gradient
        return worst

    @staticmethod
    def same_outputs(a, b):
        (la, pa), (lb, pb) = a.outputs, b.outputs
        return la == lb and all(np.array_equal(pa[n].data, pb[n].data) for n in pa)


WORKLOADS = {w.name: w for w in (TrainWorkload, SampleWorkload, ContinueWorkload)}


def _timed_setups(wl, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name, seed, seconds, import_s):
    """Untraced run: end-to-end metrics and output checks."""
    wl = WORKLOADS[name](seed)
    setups = _timed_setups(wl, SETUP_REPEATS)
    probe = SpeedProbe()
    r = wl.run(seconds=seconds, probe=probe)
    speed = probe.factor()
    raw = {
        "op_ms": statistics.median(r.times) * 1e3,
        "tokens_per_s": sum(r.tokens) / sum(r.times),
        "setup_s": import_s + statistics.median(setups),
    }
    metrics = {
        "op_ms": {"value": raw["op_ms"] * speed, "unit": "ms"},
        "tokens_per_s": {"value": raw["tokens_per_s"] / speed, "unit": "tokens/s"},
        "setup_s": {"value": raw["setup_s"] * speed, "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},  # before the checks' own work
    }
    problems, detail = wl.check(r)
    detail.update(raw_wall_clock=raw, speed_factor=speed, probes=len(probe.samples),
                  probe_median_s=statistics.median(probe.samples), import_s=import_s,
                  setup_runs_s=setups, ops=len(r.times), wall_s=r.wall,
                  op_ms=[t * 1e3 for t in r.times])
    return r, problems, detail, metrics


def traced(name, seed, seconds, trace_path):
    """Traced run: the same operations untraced, then traced; per-layer
    metrics from the traced pass, overhead from the difference."""
    wl = WORKLOADS[name](seed)
    wl.setup()
    plain = wl.run(seconds=seconds / 2.0)
    n_ops = plain.attempted
    tracer = spans.Tracer()
    with tracer:
        if getattr(wl, "weights", None):
            load_weights(wl.weights)  # one traced checkpoint load
        traced_run = wl.run(n_ops=n_ops)
    problems, detail = wl.check(plain)
    if not wl.same_outputs(plain, traced_run):
        problems.append("traced outputs differ from untraced outputs")
    recorded = tracer.spans()
    metrics = spans.layer_metrics(recorded, tracer.counters, n_ops)
    metrics["trace_overhead_s"] = {"value": traced_run.wall - plain.wall, "unit": "s"}
    tracer.write(trace_path, {"workload": name, "seed": seed, "ops": n_ops, "metrics": metrics})
    detail.update(ops=n_ops, untraced_wall_s=plain.wall, traced_wall_s=traced_run.wall,
                  absent=tracer.absent, spans=len(recorded))
    return traced_run, problems, detail, metrics
