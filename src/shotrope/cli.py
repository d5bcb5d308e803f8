"""Command-line surface: train, sample, curve export, ablation.

Exit codes: 0 success, 2 usage/config error, 3 numeric divergence.  No
command returns 1: exit 1 is Python's for an uncaught exception, which is
a bug.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
import typing

import numpy as np

from . import analysis, engine, model as M, synthetic as S
from .checkpoint import (
    load_checkpoint,
    open_input,
    save_checkpoint,
    save_tensors,
    sidecar_path,
    write_csv,
    write_json,
)
from .tensor import ConfigError, NumericError, ShapeError, Tensor, check_config, seeded_rng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# most grid points `curve` evaluates; each costs one Python-level partial sum
CURVE_MAX_POINTS = 100_000
# largest `curve --dim`; each grid point sums dim/2 complex terms
CURVE_MAX_DIM = 4096
# most tokens in one `sample --shots` group or training layout; peak memory grows
# with its square: one default-model shot samples at 331 MB with 2,048 tokens and
# 1.1 GB with 4,096
LAYOUT_MAX_TOKENS = 4096
# most tokens in one training batch, batch_size times the largest training layout:
# engine.train renders the whole batch and draws its noise before the first forward,
# 16 default-world layouts of 4,096 tokens at 106 MB (857 MB at d_token 1,536)
BATCH_MAX_TOKENS = 65536
# most tokens in the packed field of a multi-group `sample`: shot 0 once and each
# group's later shots; a guided step of a default model peaks at 474 MB for 32,272
# tokens in 1,024-token groups and 768 MB for 32,656 in 4,096-token groups
PACKED_MAX_TOKENS = 32768
# most Euler steps of one `sample --steps` or `ablate --eval-steps` sampling call:
# its schedule holds steps + 1 float64 times, and each step is one guided forward,
# 10 ms for a 144-token default-model field on one 2-vCPU Xeon core (1.7 min for 10,000)
SAMPLE_MAX_STEPS = 10_000
# most `ablate --eval-samples`: every prompt is drawn before the first variant trains,
# and each variant samples each once, 0.95 s at 50 steps (over an hour for 4,096)
EVAL_MAX_SAMPLES = 4096
# largest world.n_ids: a world draws its whole identity pool when it is built,
# n_ids x d_id float64 values; 65,536 identities of d_id 16 take 8 MB
WORLD_MAX_IDS = 65536
# largest world d_token, d_id, v_scene and v_mot: a world is built with a QR of
# each vocabulary and a pseudo-inverse of its d_token x (d_id + v_scene + v_mot + 6)
# render map; d_token 1,536 with 1,500 scenes takes 4 s and 220 MB on one core
WORLD_MAX_SIZE = 1536
# most weights in a run config's model; training holds each four times (weight,
# gradient, two AdamW moments), which for 2^24 float32 weights is 270 MB
MODEL_MAX_PARAMS = 2**24


def load_run_config(path):
    with open_input(path, "config file") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    check_config("run", raw, dict.fromkeys(("model", "train", "world"), dict))
    for section in ("model", "train", "world"):
        if section not in raw:
            raise ConfigError(f"config missing section {section!r}")
    model_cfg = M.DenoiserConfig.from_dict(raw["model"])
    # every block has the weights of a one-block model's block0
    shapes = M.param_shapes(dataclasses.replace(model_cfg, blocks=1))
    n_params = sum(math.prod(shape) * (model_cfg.blocks if name.startswith("block") else 1)
                   for name, shape in shapes)
    if n_params > MODEL_MAX_PARAMS:
        raise ConfigError(f"a model of {n_params} weights exceeds {MODEL_MAX_PARAMS}")
    world = _world_for(model_cfg, raw["world"])
    train_cfg = engine.TrainConfig.from_dict(raw["train"])
    if "seed" not in raw["train"]:
        raise ConfigError("train.seed must be explicit")
    frames = train_cfg.shot_count_range[1] * train_cfg.shot_len_range[1]
    tokens = frames * world.height * world.width
    if tokens > LAYOUT_MAX_TOKENS:
        raise ConfigError(f"a training layout of up to {tokens} tokens exceeds {LAYOUT_MAX_TOKENS}")
    if train_cfg.batch_size * tokens > BATCH_MAX_TOKENS:
        raise ConfigError(f"a training batch of up to {train_cfg.batch_size * tokens} tokens "
                          f"exceeds {BATCH_MAX_TOKENS}")
    return model_cfg, train_cfg, world


def _world_for(model_cfg, raw):
    """The world of a run config's or sidecar's world section raw, built only once
    its sizes pass: the model reads the world's tokens, identities and caption ids."""
    check_config("world", raw, typing.get_type_hints(S.SyntheticWorld))
    size = {f.name: raw.get(f.name, f.default) for f in dataclasses.fields(S.SyntheticWorld)}
    if (model_cfg.d_token, model_cfg.d_id) != (size["d_token"], size["d_id"]):
        raise ConfigError("model d_token and d_id must equal the world's")
    if model_cfg.v_scene < size["v_scene"] or model_cfg.v_mot < size["v_mot"]:
        raise ConfigError("model v_scene and v_mot must be at least the world's")
    if size["n_ids"] > WORLD_MAX_IDS:
        raise ConfigError(f"world n_ids {size['n_ids']} exceeds {WORLD_MAX_IDS}")
    for key in ("d_token", "d_id", "v_scene", "v_mot"):
        if size[key] > WORLD_MAX_SIZE:
            raise ConfigError(f"world {key} {size[key]} exceeds {WORLD_MAX_SIZE}")
    return S.SyntheticWorld.from_config(raw)  # requires world.seed


@contextlib.contextmanager
def _run_dir(path, *names):
    """Make the output directory path of a run (the current one when path is
    empty) and yield a staging directory in it: the block writes the run's
    files, named names, there, and they are renamed into path when it
    returns.  An output name that is an existing directory, or a path that
    cannot be made, is a usage error before the block runs.  A block that
    raises, a failed write or a Ctrl-C among them, saves no file (unless a
    rename into place fails after another succeeded) and leaves no directory
    this made behind; the exception goes on unchanged."""
    targets = [os.path.join(path, name) for name in names]
    _refuse_directories(targets)
    made = []
    head = os.path.abspath(path)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(path or os.curdir, exist_ok=True)
        stage = tempfile.mkdtemp(prefix=".stage-", dir=path or os.curdir)
    except OSError as exc:
        _remove_empty(made)
        raise ConfigError(f"cannot make output directory {path}: {exc}") from exc
    try:
        yield stage
        _refuse_directories(targets)  # one made during the work
        for name, target in zip(names, targets):
            try:
                os.replace(os.path.join(stage, name), target)
            except OSError as exc:
                raise ConfigError(f"cannot write {target}: {exc.strerror or exc}") from exc
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        _remove_empty(made)
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _remove_empty(dirs):
    """Remove dirs, deepest first, but any that is missing or that something
    else has written into."""
    for path in dirs:
        with contextlib.suppress(OSError):
            os.rmdir(path)


def _refuse_directories(paths):
    for path in paths:
        if os.path.isdir(path):
            raise ConfigError(f"output {path} is a directory")


def run_config_dict(model_cfg, train_cfg, world):
    return {
        "model": model_cfg.to_dict(),
        "train": train_cfg.to_dict(),
        "world": world.config(),
    }


def cmd_train(args):
    model_cfg, train_cfg, world = load_run_config(args.config)
    names = ("checkpoint.ecsh", sidecar_path("checkpoint.ecsh"), "loss.csv")
    with _run_dir(args.out, *names) as stage:
        params, log = engine.train(model_cfg, train_cfg, world)
        save_checkpoint(os.path.join(stage, names[0]), params,
                        run_config_dict(model_cfg, train_cfg, world))
        rows = [[step, repr(loss), repr(smoothed)] for step, loss, smoothed in log]
        write_csv(os.path.join(stage, names[2]), [["step", "loss", "smoothed"], *rows])
    print(f"checkpoint: {os.path.join(args.out, names[0])}")
    print(f"final loss: {log[-1][1]:.6f} (smoothed {log[-1][2]:.6f})")
    return EXIT_OK


def parse_shot_spec(text):
    """`n=4,scene=3,motion=1;n=6,scene=7` -> list of shot prompts."""
    prompts = []
    for segment in text.split(";"):
        segment = segment.strip()
        if not segment:
            raise ConfigError(f"empty shot segment in spec: {text!r}")
        fields = {}
        for part in segment.split(","):
            if "=" not in part:
                raise ConfigError(f"malformed shot segment: {segment!r}")
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in ("n", "scene", "motion"):
                raise ConfigError(f"malformed shot segment: {segment!r}")
            if key in fields:
                raise ConfigError(f"repeated key {key!r} in shot segment: {segment!r}")
            try:
                fields[key] = int(value)
            except ValueError:
                raise ConfigError(f"malformed shot segment: {segment!r}") from None
        if "n" not in fields or "scene" not in fields:
            raise ConfigError(f"shot segment needs n= and scene=: {segment!r}")
        prompts.append(
            engine.ShotPrompt(
                frames=fields["n"], scene=fields["scene"], motion=fields.get("motion", 0)
            )
        )
    return prompts


def _load_model(ckpt_path):
    if not os.path.exists(ckpt_path):
        raise ConfigError(f"checkpoint not found: {ckpt_path}")
    tensors, config = load_checkpoint(ckpt_path)
    sections = ("model", "world")
    if not (isinstance(config, dict) and all(isinstance(config.get(s), dict) for s in sections)):
        raise ConfigError(f"checkpoint sidecar of {ckpt_path} needs 'model' and 'world' sections")
    # the census bounds the model's sizes by the file's, and the model bounds the world's
    model_cfg = M.DenoiserConfig.from_dict(config["model"])
    census = M.params_census(tensors)
    # one entry more than the file holds is enough to tell a longer table
    expected = dict(itertools.islice(M.param_shapes(model_cfg), len(census) + 1))
    wrong = sorted(n for n in set(census) | set(expected) if census.get(n) != expected.get(n))
    if wrong:
        raise ConfigError(f"checkpoint {ckpt_path}: tensors {wrong} do not match its model config")
    if not all(np.isfinite(arr).all() for arr in tensors.values()):
        raise ConfigError(f"checkpoint {ckpt_path}: tensors hold non-finite values")
    world = _world_for(model_cfg, config["world"])
    params = {name: Tensor(arr, requires_grad=True) for name, arr in tensors.items()}
    return params, model_cfg, world


def _require_finite(**flags):
    for flag, value in flags.items():
        if not math.isfinite(value):
            raise ConfigError(f"--{flag} must be finite, got {value}")


def _require_count(**flags):
    """Each flag's value lies in [1, its bound]: flags map to (value, bound)."""
    for flag, (value, bound) in flags.items():
        if not 1 <= value <= bound:
            raise ConfigError(f"--{flag.replace('_', '-')} must lie in [1, {bound}], got {value}")


def cmd_sample(args):
    _require_finite(guidance=args.guidance, shift=args.shift)
    _require_count(steps=(args.steps, SAMPLE_MAX_STEPS))
    params, model_cfg, world = _load_model(args.ckpt)
    specs = [parse_shot_spec(s) for s in args.shots]
    v_scene, v_mot = world.v_scene, world.v_mot
    layouts = [engine.build_layout(spec, world) for spec in specs]
    for spec, layout in zip(specs, layouts):
        if layout.total_tokens > LAYOUT_MAX_TOKENS:
            raise ConfigError(f"a --shots group of {layout.total_tokens} tokens "
                              f"exceeds {LAYOUT_MAX_TOKENS}")
        if not all(0 <= p.scene < v_scene and 0 <= p.motion < v_mot for p in spec):
            raise ConfigError(f"--shots ids outside the world's {v_scene} scenes, {v_mot} motions")
    id_embedding = None
    if args.id is not None:
        if not 0 <= args.id < world.n_ids:
            raise ConfigError(f"--id {args.id} outside identity pool")
        id_embedding = engine.identity_embedding(params, world, args.id)
    if any(spec[0] != specs[0][0] for spec in specs):
        raise ConfigError("every --shots group must share the first segment")
    packed = engine.PackedLayout(tuple(layouts)).total_tokens
    if packed > PACKED_MAX_TOKENS:
        raise ConfigError(f"--shots groups of {packed} packed tokens exceed {PACKED_MAX_TOKENS}")
    field_names = [f"sample{i:04d}.ecsh" for i in range(len(specs))]

    with _run_dir(args.out, *field_names, "metrics.json") as stage:
        if len(specs) > 1:  # continue the first group's reference shot
            ref = specs[0][0]
            # the root sequence: attempt a's added shots draw from spawn key (a,)
            n0 = engine.build_layout([ref], world).total_tokens
            ref_noise = seeded_rng(args.seed).standard_normal((n0, world.d_token))
            fields = engine.sample_infinite(
                params, model_cfg, world, ref, ref_noise,
                [spec[1:] for spec in specs],
                seed=args.seed, steps=args.steps, shift=args.shift, guidance=args.guidance,
                id_embedding=id_embedding,
            )
        else:
            fields = [
                engine.sample(
                    params, model_cfg, world, specs[0],
                    steps=args.steps, shift=args.shift, guidance=args.guidance,
                    seed=args.seed, id_embedding=id_embedding,
                )
            ]

        metrics = []
        for name, tokens, spec, layout in zip(field_names, fields, specs, layouts):
            save_tensors(os.path.join(stage, name), {"tokens": tokens})
            rec = engine.metrics_on_field(tokens, spec, layout, world)
            rec["file"] = name
            metrics.append(rec)
        summary = engine.mean_metrics(metrics)
        summary["n_samples"] = len(metrics)
        summary["seed"] = args.seed
        summary["samples"] = metrics
        write_json(os.path.join(stage, "metrics.json"), summary, indent=2)
    print(json.dumps({k: summary[k] for k in engine.METRIC_KEYS}))
    return EXIT_OK


def cmd_curve(args):
    if args.dim % 2 != 0 or not 2 <= args.dim <= CURVE_MAX_DIM:
        raise ConfigError(f"--dim must be even and in [2, {CURVE_MAX_DIM}], got {args.dim}")
    _require_finite(step=args.step, xmax=args.xmax, k=args.k)
    if not math.isfinite(args.k * 4):
        raise ConfigError(f"--k {args.k:g} overflows at the printed shot distance 4")
    if args.step <= 0:
        raise ConfigError(f"--step must be positive, got {args.step}")
    stop = args.xmax + 1e-9
    if stop / args.step > CURVE_MAX_POINTS:
        raise ConfigError(
            f"--xmax {args.xmax:g} at --step {args.step:g} is more than "
            f"{CURVE_MAX_POINTS} grid points"
        )
    name = os.path.basename(args.out)
    with _run_dir(os.path.dirname(args.out), name) as stage:
        curve = analysis.delta_curve(args.dim, np.arange(0.0, stop, args.step))
        rows = [[repr(float(v)) for v in row] for row in zip(curve.xs, curve.f, curve.delta)]
        write_csv(os.path.join(stage, name), [["x", "f", "delta"], *rows])
    for ds in range(5):
        x = args.k * ds
        d = analysis.partial_sum_magnitudes(args.dim, x) / curve.f[0]
        print(f"delta(k*{ds}) = delta({x:g}) = {d:.6f}")
    print(f"curve written to {args.out}")
    return EXIT_OK


def _ablate_run(task):
    model_cfg, train_cfg, world, eval_cfg = task
    params, _ = engine.train(model_cfg, train_cfg, world)
    return engine.evaluate(params, model_cfg, world, **eval_cfg)


def cmd_ablate(args):
    _require_count(eval_samples=(args.eval_samples, EVAL_MAX_SAMPLES),
                   eval_steps=(args.eval_steps, SAMPLE_MAX_STEPS))
    model_cfg, train_cfg, world = load_run_config(args.config)
    engine.eval_specs(world, args.eval_samples, train_cfg.seed)
    runs = [(v, dataclasses.replace(model_cfg, variant=v)) for v in ("vanilla", "tcrope", "full")]
    if args.grid:
        runs += [
            (f"full[j={j:g},k={k:g}]", dataclasses.replace(model_cfg, variant="full", j=j, k=k))
            for j in (2.0, 4.0, 6.0)
            for k in (2.0, 6.0, 12.0)
        ]

    eval_cfg = {"n_samples": args.eval_samples, "seed": train_cfg.seed, "steps": args.eval_steps}
    tasks = [(cfg, train_cfg, world, eval_cfg) for _, cfg in runs]
    workers = min(engine.usable_cpus(), len(tasks))
    with _run_dir(args.out, "ablation.csv") as stage:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_ablate_run, tasks))
        else:
            results = [_ablate_run(t) for t in tasks]

        default = M.DenoiserConfig()
        rows = [["variant", "j", "k", "default", *engine.METRIC_KEYS]]
        for (name, cfg), metrics in zip(runs, results):
            is_default = cfg.variant == "full" and (cfg.j, cfg.k) == (default.j, default.k)
            rows.append([name, cfg.j, cfg.k, "yes" if is_default else "no"]
                        + [repr(metrics[key]) for key in engine.METRIC_KEYS])
        write_csv(os.path.join(stage, "ablation.csv"), rows)
    for (name, _), metrics in zip(runs, results):
        print(
            f"{name}: scene_adherence={metrics['scene_adherence']:.3f} "
            f"identity={metrics['identity_consistency']:.3f} cut={metrics['cut_accuracy']:.3f}"
        )
    print(f"table written to {os.path.join(args.out, 'ablation.csv')}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="shotrope")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a denoiser on the synthetic world")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="generate token fields from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--shots", action="append", required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--shift", type=float, default=5.0)
    p.add_argument("--guidance", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--id", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("curve", help="export the suppression bound curve")
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--k", type=float, default=M.DenoiserConfig().k)
    p.add_argument("--xmax", type=float, default=50.0)
    p.add_argument("--step", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("ablate", help="train and evaluate ablation variants")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", action="store_true")
    p.add_argument("--eval-samples", type=int, default=32)
    p.add_argument("--eval-steps", type=int, default=50)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None):
    """Run one command with BLAS on one thread, and give the caller its own
    count back when it returns.  One thread trained a default model faster
    than one a CPU, lets a guided sampling call run its unconditional branch
    on a second CPU, and is what ablate's forked pool workers inherit."""
    parser = build_parser()
    threads = engine.blas_threads()
    engine.blas_threads(1)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        engine.blas_threads(threads)


if __name__ == "__main__":
    sys.exit(main())
