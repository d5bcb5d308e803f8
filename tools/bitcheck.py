"""Print one SHA-256 over outputs that must not change bit for bit.

A change that claims to keep the numerics prints the same digest as its
parent.  Run it once against each tree's sources and compare:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tools/bitcheck.py
    PYTHONPATH=/path/to/parent/src OPENBLAS_NUM_THREADS=1 python tools/bitcheck.py

shotrope is imported from PYTHONPATH; the fixed weights are only read.
The digest covers, hashed in this order:

- 15 `engine.train` steps of every variant, plain and pmt2v (half the
  identities dropped), on a 32-dim, 2-block model: parameters and loss log;
- 4 pmt2v steps of the default model;
- a 50-step `engine.sample` of `full` and `full+refattn` on full.ecsh;
- a 50-step `engine.sample_infinite` with an identity on full_idft.ecsh,
  one of whose attempts adds no shot;
- a 50-step identity-conditioned `engine.sample` on full_idft.ecsh;
- the float64 tape gradient of one batch of 2 on the default model, the
  path of the benchmark's gradient check: every parameter's gradient;
- the self- and cross-attention probabilities an `AttentionCollector`
  gathers from one forward of every variant on full.ecsh's weights.
"""

from __future__ import annotations

import argparse
import hashlib
import os

import numpy as np

from shotrope import checkpoint as C, engine as E, model as M, synthetic as S, tensor as T
from shotrope.tensor import Tensor

WEIGHTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "weights")


def _update(h, name, arr):
    arr = np.ascontiguousarray(arr)
    h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
    h.update(arr.tobytes())


def _train(h, tag, model_cfg, train_cfg, world):
    params, log = E.train(model_cfg, train_cfg, world)
    for name in sorted(params):
        _update(h, f"{tag}/{name}", params[name].data)
    _update(h, f"{tag}/loss", np.asarray(log, dtype=np.float64))


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


def _attention_probs(h, weights):
    """Probabilities gathered from one forward of every variant."""
    for variant in M.VARIANTS:
        params, cfg, w = _load(weights, "full.ecsh", variant)
        sample = S.make_batch(w, 1, shot_count_range=(3, 3), seed=19)[0]
        eps = np.random.default_rng(20).standard_normal(sample.tokens.shape)
        z_tau = (0.5 * sample.tokens + 0.5 * eps).astype(np.float32)
        collector = M.AttentionCollector()
        M.denoiser_forward(z_tau, 0.5, sample.captions, sample.layout, cfg, params, collect=collector)
        for i, probs in enumerate(collector.self_probs):
            _update(h, f"probs/{variant}/self/{i}", probs)
        for i, (probs, shots) in enumerate(collector.cross_probs):
            _update(h, f"probs/{variant}/cross/{i}", probs)
            _update(h, f"probs/{variant}/cross/{i}/shots", shots)


def digest(weights):
    h = hashlib.sha256()
    world = S.SyntheticWorld(seed=1)
    for variant in M.VARIANTS:
        for pmt2v in (False, True):
            _train(
                h, f"small/{variant}/{pmt2v}",
                M.DenoiserConfig(d_model=32, blocks=2, variant=variant),
                E.TrainConfig(steps=15, seed=3, pmt2v=pmt2v, id_dropout=0.5),
                world,
            )
    _train(h, "default/pmt2v", M.DenoiserConfig(),
           E.TrainConfig(steps=4, seed=5, pmt2v=True, id_dropout=0.5), world)

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

    _gradient(h, world)
    _attention_probs(h, weights)
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--weights", default=WEIGHTS, help="directory of the fixed weights")
    print(digest(parser.parse_args().weights))


if __name__ == "__main__":
    main()
