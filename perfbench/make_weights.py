"""Remake the benchmark's fixed weights.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_weights.py [--out DIR]

Trains the `full` denoiser for 2000 steps (train seed 7) on
SyntheticWorld(seed=1), then fine-tunes a copy for 2000 steps with
identity conditioning (train seed 11, pmt2v), and writes
`full.ecsh` and `full_idft.ecsh` with their JSON sidecars to DIR
(default: perfbench/weights).  This takes about 12 minutes on one core.

The weights are bit-reproducible only under the numerics they were made
with; `run.py` pins their SHA-256.  A change that alters training
numerics makes this script produce different files, and the benchmark
then refuses them: keep the committed files as they are.
"""

from __future__ import annotations

import argparse
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from shotrope import checkpoint as C  # noqa: E402
from shotrope import engine as E  # noqa: E402
from shotrope import model as M  # noqa: E402
from shotrope import synthetic as S  # noqa: E402
from shotrope.tensor import Tensor  # noqa: E402

WORLD_SEED = 1
BASE = dict(steps=2000, seed=7)
FINETUNE = dict(steps=2000, seed=11, pmt2v=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(os.path.dirname(__file__), "weights"))
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    world = S.SyntheticWorld(seed=WORLD_SEED)
    model_cfg = M.DenoiserConfig(variant="full")
    base_cfg = E.TrainConfig(**BASE)
    params, _ = E.train(model_cfg, base_cfg, world)
    C.save_checkpoint(
        os.path.join(args.out, "full.ecsh"),
        params,
        {"model": model_cfg.to_dict(), "train": base_cfg.to_dict(), "world": world.config()},
    )
    print("wrote full.ecsh", file=sys.stderr)

    ft_cfg = E.TrainConfig(**FINETUNE)
    params = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in params.items()}
    params, _ = E.train(model_cfg, ft_cfg, world, params=params)
    C.save_checkpoint(
        os.path.join(args.out, "full_idft.ecsh"),
        params,
        {
            "model": model_cfg.to_dict(),
            "base_train": base_cfg.to_dict(),
            "finetune": ft_cfg.to_dict(),
            "world": world.config(),
        },
    )
    print("wrote full_idft.ecsh", file=sys.stderr)


if __name__ == "__main__":
    main()
