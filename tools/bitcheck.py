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
- a 50-step identity-conditioned `engine.sample` on full_idft.ecsh.
"""

from __future__ import annotations

import argparse
import hashlib
import os

import numpy as np

from shotrope import checkpoint as C, engine as E, model as M, synthetic as S
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
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--weights", default=WEIGHTS, help="directory of the fixed weights")
    print(digest(parser.parse_args().weights))


if __name__ == "__main__":
    main()
