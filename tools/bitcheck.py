"""Print two SHA-256 digests of outputs that must not change bit for bit.

`fingerprint()` hashes what under a second of the program computes: the
numerics of training, of the tape, of attention and of sampling.  `tests/conftest.py`
folds it into the keys of the trained checkpoints and metrics it caches,
so those are reused only by code that computes the same bits.  It covers,
hashed in this order:

- for every variant, 3 `engine.train` steps, plain and pmt2v (half the
  identities dropped, so that both the null-identity row and a projected
  identity are drawn), of a 32-dim, 2-block model: parameters and loss
  log; then the self- and cross-attention probabilities (and key shot
  indices) an `AttentionCollector` gathers from one forward on the plain
  run's weights, and a 3-step guided `engine.sample` of an evaluation
  prompt conditioned on an identity, on the pmt2v run's weights;
- the float64 tape gradient of one batch of 2 on the default model, the
  path of the benchmark's gradient check: every parameter's gradient.

Those trainings and samples are too short for engine's forked workers, so
it also runs, at one BLAS thread as `cli.main` sets it, a pmt2v training of
`TRAIN_WORKER_MIN_STEPS` steps and a guided sample of
`BRANCH_WORKER_MIN_ROW_STEPS` rows x steps on the worker paths, and raises
unless each equals its in-process twin bit for bit.  Those runs add nothing
to the digest, so a cached result is vouched for only by code whose worker
paths reproduce the in-process bits.  Where no worker can start (one CPU,
no fork, a second thread), it says on standard error that it skipped
this check.

It reads no file.  The digest this script prints first adds to those updates
50-step samples from the fixed weights in perfbench/weights:

- an `engine.sample` of `full` and `full+refattn` on full.ecsh;
- an `engine.sample_infinite` with an identity on full_idft.ecsh, one of
  whose attempts adds no shot;
- an identity-conditioned `engine.sample` on full_idft.ecsh.

`scoring_fingerprint()` hashes the scoring code on its own: the prompts of
`engine.eval_specs` on a fixed world and seed, and what `metrics_on_field`,
`mean_metrics` and `identity_match` make of fixed fields, clean renders
under ever more noise.  It also hashes what `engine.evaluate` returns, with
and without an identity, for a 32-dim, 2-block model whose head is a seeded
normal rather than zero, so that captions and identity reach the sampled
field: the seeds, identity draws and arguments evaluate hands to sampling
count as scoring too.  It reads no file either.  `tests/conftest.py`
folds it into the keys of the cached metrics only, so a change to the
scoring alone rescores the cached checkpoints without retraining them.
The first digest leaves it out; the script prints it on the second line.

A change that claims to keep the numerics prints the same two lines as
its parent.  Run it once against each tree's sources and compare:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tools/bitcheck.py
    PYTHONPATH=/path/to/parent/src OPENBLAS_NUM_THREADS=1 python tools/bitcheck.py

or let it run the second tree itself, in a subprocess with that
PYTHONPATH and one BLAS thread; it prints both trees' lines and exits 1
when they differ (2 when the directory is missing):

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tools/bitcheck.py --against /path/to/parent/src

shotrope is imported from PYTHONPATH; the fixed weights are only read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np

from shotrope import checkpoint as C, engine as E, model as M, synthetic as S, tensor as T
from shotrope.tensor import Tensor

WEIGHTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "weights")
# the small trainings; with this seed each pmt2v run draws both identity rows
FINGERPRINT_TRAIN = {"steps": 3, "seed": 3, "id_dropout": 0.5}


def _update(h, name, arr):
    arr = np.ascontiguousarray(arr)
    h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
    h.update(arr.tobytes())


def _train(h, tag, model_cfg, train_cfg, world):
    params, log = E.train(model_cfg, train_cfg, world)
    for name in sorted(params):
        _update(h, f"{tag}/{name}", params[name].data)
    _update(h, f"{tag}/loss", np.asarray(log, dtype=np.float64))
    return params


def _load(weights, name, variant=None):
    tensors, config = C.load_checkpoint(os.path.join(weights, name))
    model = dict(config["model"])
    if variant is not None:
        model["variant"] = variant
    params = {n: Tensor(a, requires_grad=True) for n, a in tensors.items()}
    return params, M.DenoiserConfig.from_dict(model), S.SyntheticWorld.from_config(config["world"])


def _gradient(h, world):
    """float64 tape gradient of the mean rf_loss of one batch of 2."""
    cfg = M.DenoiserConfig()
    params = {
        n: Tensor(p.data.astype(np.float64), requires_grad=True)
        for n, p in M.init_params(cfg, 16).items()
    }
    rng = np.random.default_rng(17)
    with T.GradTape() as tape:
        losses = []
        for sample in S.make_batch(world, 2, seed=18):
            tau = float(rng.uniform(0.05, 0.95))
            eps = rng.standard_normal(sample.tokens.shape)
            z_tau = Tensor((1.0 - tau) * sample.tokens.astype(np.float64) + tau * eps, dtype=np.float64)
            pred = M.denoiser_forward(z_tau, tau, sample.captions, sample.layout, cfg, params)
            losses.append(M.rf_loss(pred, sample.tokens, eps))
        tape.backward(T.scale(T.add(*losses), 0.5))
    for name in sorted(params):
        if params[name].grad is not None:
            _update(h, f"grad/{name}", params[name].grad)


def _attention_probs(h, tag, cfg, params, world):
    """Probabilities gathered from one forward of 3 shots."""
    sample = S.make_batch(world, 1, shot_count_range=(3, 3), seed=19)[0]
    eps = np.random.default_rng(20).standard_normal(sample.tokens.shape)
    collector = M.AttentionCollector()
    M.denoiser_forward(
        M.make_noisy(sample.tokens, eps, 0.5), 0.5, sample.captions, sample.layout, cfg, params,
        collect=collector,
    )
    for i, probs in enumerate(collector.self_probs):
        _update(h, f"{tag}/self/{i}", probs)
    for i, (probs, shots) in enumerate(collector.cross_probs):
        _update(h, f"{tag}/cross/{i}", probs)
        _update(h, f"{tag}/cross/{i}/shots", shots)


def _fingerprint_updates(h):
    world = S.SyntheticWorld(seed=1)
    for variant in M.VARIANTS:
        cfg = M.DenoiserConfig(d_model=32, blocks=2, variant=variant)
        plain, pmt2v = (
            _train(h, f"small/{variant}/{p}", cfg, E.TrainConfig(**FINGERPRINT_TRAIN, pmt2v=p), world)
            for p in (False, True)
        )
        _attention_probs(h, f"probs/{variant}", cfg, plain, world)
        emb = E.identity_embedding(pmt2v, world, 0)
        spec = E.eval_specs(world, 1, seed=21)[0]
        field = E.sample(pmt2v, cfg, world, spec, steps=3, seed=22, id_embedding=emb)
        _update(h, f"small/{variant}/sample", field)
    _gradient(h, world)
    _check_worker_paths(world)


def _check_worker_paths(world):
    """Raise unless a training and a guided sample on engine's forked-worker
    paths equal their in-process twins bit for bit; at one BLAS thread,
    restored afterwards, and skipped, with a note, where no worker can start."""
    threads = E.blas_threads()
    E.blas_threads(1)
    try:
        if not E._may_fork_worker():
            print("bitcheck: engine starts no worker here (engine._may_fork_worker: one CPU, "
                  "no fork or a second thread): skipped the worker-path check", file=sys.stderr)
            return
        cfg = M.DenoiserConfig(d_model=32, blocks=2)
        train_cfg = E.TrainConfig(**{**FINGERPRINT_TRAIN, "steps": E.TRAIN_WORKER_MIN_STEPS},
                                  pmt2v=True)
        spec = E.eval_specs(world, 1, seed=21)[0]
        rows = E.build_layout(spec, world).total_tokens
        steps = -(-E.BRANCH_WORKER_MIN_ROW_STEPS // rows)
        if not (E._forks_train_worker(train_cfg) and E._forks_branch_worker(rows, steps)):
            raise RuntimeError("the worker-path check's runs stay below a worker gate")

        def run():
            params, log = E.train(cfg, train_cfg, world)
            emb = E.identity_embedding(params, world, 0)
            field = E.sample(params, cfg, world, spec, steps=steps, seed=22, id_embedding=emb)
            return [p.data for p in params.values()] + [np.asarray(log), field]

        got = run()
        gates = E._forks_train_worker, E._forks_branch_worker
        E._forks_train_worker = E._forks_branch_worker = lambda *args: False
        try:
            want = run()
        finally:
            E._forks_train_worker, E._forks_branch_worker = gates
        if not all(np.array_equal(a, b) for a, b in zip(got, want, strict=True)):
            raise RuntimeError("a worker path of engine no longer has the in-process bits")
    finally:
        E.blas_threads(threads)


def fingerprint():
    """SHA-256 of the training, tape, attention and sampling numerics; reads no file."""
    h = hashlib.sha256()
    _fingerprint_updates(h)
    return h.hexdigest()


def scoring_fingerprint():
    """SHA-256 of evaluation prompts and of metrics scored on fixed fields."""
    world = S.SyntheticWorld(seed=1)
    rng = np.random.default_rng(23)
    specs = E.eval_specs(world, 8, seed=24)
    records, matches = [], []
    for i, spec in enumerate(specs):
        layout = E.build_layout(spec, world)
        clean = S.render_sample(world, i, spec, noise_seed=25 + i)
        # noise of std i: every metric takes more than one value over the records
        field = (clean + i * rng.standard_normal(clean.shape)).astype(np.float32)
        records.append(E.metrics_on_field(field, spec, layout, world))
        matches.append(E.identity_match(field, world, layout, i))
    scored = {
        "specs": [[(p.frames, p.scene, p.motion) for p in spec] for spec in specs],
        "records": records,
        "mean": E.mean_metrics(records),
        "identity_match": matches,
        "evaluate": _evaluated(world),
    }
    return hashlib.sha256(json.dumps(scored, sort_keys=True).encode()).hexdigest()


def _evaluated(world):
    """engine.evaluate without and with an identity on a small model with a
    seeded normal head: init_params zeroes the head, which nulls the field."""
    cfg = M.DenoiserConfig(d_model=32, blocks=2)
    params = M.init_params(cfg, 26)
    head = params["head/w"]
    head.data = np.random.default_rng(27).standard_normal(head.shape).astype(np.float32)
    return [
        E.evaluate(params, cfg, world, n_samples=3, seed=28, steps=2, use_identity=use_identity)
        for use_identity in (False, True)
    ]


def digest(weights):
    """The fingerprint's updates, then 50-step samples from the fixed weights."""
    h = hashlib.sha256()
    _fingerprint_updates(h)

    for variant in ("full", "full+refattn"):
        params, cfg, w = _load(weights, "full.ecsh", variant)
        spec = E.eval_specs(w, 1, seed=11)[0]
        _update(h, f"sample/{variant}", E.sample(params, cfg, w, spec, seed=12))

    params, cfg, w = _load(weights, "full_idft.ecsh", "full+refattn")
    emb = E.identity_embedding(params, w, 3)
    ref = E.ShotPrompt(3, 0, 1)
    ref_noise = np.random.default_rng(13).standard_normal((3 * w.height * w.width, w.d_token))
    attempts = [[E.ShotPrompt(2, 1)], [], [E.ShotPrompt(3, 2, 1), E.ShotPrompt(2, 4)]]
    fields = E.sample_infinite(
        params, cfg, w, ref, ref_noise.astype(np.float32), attempts, seed=14, id_embedding=emb
    )
    for a, field in enumerate(fields):
        _update(h, f"continue/{a}", field)

    params, cfg, w = _load(weights, "full_idft.ecsh")
    spec = [E.ShotPrompt(2, 5), E.ShotPrompt(3, 6, 1)]
    _update(h, "sample/identity", E.sample(params, cfg, w, spec, seed=15, id_embedding=emb))
    return h.hexdigest()


def compare(ours, theirs, against):
    """The lines that print this tree's and the other tree's digests, and the
    exit status: 0 when they agree, 1 on any difference."""
    report = [f"this tree: {line}" for line in ours]
    report += [f"{against}: {line}" for line in theirs]
    same = list(ours) == list(theirs)
    report.append("same bits" if same else "the bits differ")
    return report, 0 if same else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--weights", default=WEIGHTS, help="directory of the fixed weights")
    parser.add_argument(
        "--against", metavar="SRC_DIR",
        help="also run on the shotrope sources in SRC_DIR; exit 1 if the lines differ",
    )
    args = parser.parse_args(argv)
    if args.against is not None and not os.path.isdir(args.against):
        print(f"bitcheck: no directory {args.against}", file=sys.stderr)
        return 2
    ours = [digest(args.weights), scoring_fingerprint()]
    if args.against is None:
        print("\n".join(ours))
        return 0
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.against), OPENBLAS_NUM_THREADS="1")
    theirs = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--weights", args.weights],
        env=env, stdout=subprocess.PIPE, text=True,
    ).stdout.split()
    report, status = compare(ours, theirs, args.against)
    print("\n".join(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
