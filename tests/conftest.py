"""Shared fixtures.

Training the ablation variants dominates the suite's runtime, so trained
parameters and their evaluation metrics are cached on disk keyed by a
hash of every input that determines them, including
`shotrope.NUMERICS_VERSION`, so a change to the numerics retrains rather
than reusing weights the code would no longer produce.  Cache files are
written atomically.  Delete the cache directory (tests/.cache by
default, override with SHOTROPE_TEST_CACHE) to force retraining.
"""

import hashlib
import json
import os

import pytest

from shotrope import NUMERICS_VERSION
from shotrope import checkpoint as C
from shotrope import engine as E
from shotrope import model as M
from shotrope import synthetic as S
from shotrope.cli import run_config_dict
from shotrope.tensor import Tensor

WORLD_SEED = 1
TRAIN_STEPS = 2000
TRAIN_SEED = 7
EVAL_SAMPLES = 32
EVAL_SEED = 123
EVAL_STEPS = 50

ABLATION_VARIANTS = ("vanilla", "tcrope", "full")

# Identity fine-tune: the identity-consistency check conditions sampling on
# a pool identity, which requires fine-tuning the full model with the
# identity-conditioning slot populated.
ID_FT_STEPS = 2000
ID_FT_SEED = 11


def _cache_dir():
    default = os.path.join(os.path.dirname(__file__), ".cache")
    path = os.environ.get("SHOTROPE_TEST_CACHE", default)
    os.makedirs(path, exist_ok=True)
    return path


def _hash_key(config):
    """16 hex digits of the SHA-256 of config as sorted-key JSON."""
    blob = json.dumps(config, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _run_key(model_cfg, train_cfg, world):
    return _hash_key(run_config_dict(model_cfg, train_cfg, world))


def _train_cached(model_cfg, train_cfg, world):
    key = _run_key(model_cfg, train_cfg, world)
    path = os.path.join(_cache_dir(), f"ckpt_{model_cfg.variant}_{key}.ecsh")
    if os.path.exists(path) and os.path.exists(C.sidecar_path(path)):
        tensors, _ = C.load_checkpoint(path)
        return {name: Tensor(arr, requires_grad=True) for name, arr in tensors.items()}
    params, _ = E.train(model_cfg, train_cfg, world)
    C.save_checkpoint(path, params, run_config_dict(model_cfg, train_cfg, world))
    return params


def _evaluate_cached(params, model_cfg, train_cfg, world):
    key = _run_key(model_cfg, train_cfg, world)
    path = os.path.join(
        _cache_dir(),
        f"metrics_{model_cfg.variant}_{key}_{EVAL_SAMPLES}_{EVAL_SEED}_{EVAL_STEPS}.json",
    )
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    metrics = E.evaluate(
        params, model_cfg, world, n_samples=EVAL_SAMPLES, seed=EVAL_SEED, steps=EVAL_STEPS
    )
    C.write_json(path, metrics, indent=2)
    return metrics


@pytest.fixture(scope="session")
def oracle_world():
    return S.SyntheticWorld(seed=WORLD_SEED)


@pytest.fixture(scope="session")
def trained_variants(oracle_world):
    """variant -> (params, model config) for the three ablation variants."""
    out = {}
    for variant in ABLATION_VARIANTS:
        model_cfg = M.DenoiserConfig(variant=variant)
        train_cfg = E.TrainConfig(steps=TRAIN_STEPS, seed=TRAIN_SEED)
        out[variant] = (_train_cached(model_cfg, train_cfg, oracle_world), model_cfg)
    return out


def _identity_finetune_key(model_cfg, base_cfg, ft_cfg, world):
    return _hash_key(
        {
            "base": {
                "model": model_cfg.to_dict(),
                "train": base_cfg.to_dict(),
                "world": world.config(),
            },
            "ft": ft_cfg.to_dict(),
            "numerics_version": NUMERICS_VERSION,
        }
    )


@pytest.fixture(scope="session")
def identity_finetuned(trained_variants, oracle_world):
    """(params, model config) of the full model after the identity fine-tune."""
    base_params, model_cfg = trained_variants["full"]
    base_cfg = E.TrainConfig(steps=TRAIN_STEPS, seed=TRAIN_SEED)
    ft_cfg = E.TrainConfig(steps=ID_FT_STEPS, seed=ID_FT_SEED, pmt2v=True)
    key = _identity_finetune_key(model_cfg, base_cfg, ft_cfg, oracle_world)
    path = os.path.join(_cache_dir(), f"ckpt_full_idft_{key}.ecsh")
    if os.path.exists(path) and os.path.exists(C.sidecar_path(path)):
        tensors, _ = C.load_checkpoint(path)
        return {n: Tensor(a, requires_grad=True) for n, a in tensors.items()}, model_cfg
    params = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in base_params.items()}
    params, _ = E.train(model_cfg, ft_cfg, oracle_world, params=params)
    C.save_checkpoint(
        path,
        params,
        {
            "model": model_cfg.to_dict(),
            "base_train": base_cfg.to_dict(),
            "finetune": ft_cfg.to_dict(),
            "world": oracle_world.config(),
            "numerics_version": NUMERICS_VERSION,
        },
    )
    return params, model_cfg


@pytest.fixture(scope="session")
def identity_model_metrics(identity_finetuned, oracle_world):
    """Identity-conditioned metrics of the fine-tuned full model."""
    params, model_cfg = identity_finetuned
    base_cfg = E.TrainConfig(steps=TRAIN_STEPS, seed=TRAIN_SEED)
    ft_cfg = E.TrainConfig(steps=ID_FT_STEPS, seed=ID_FT_SEED, pmt2v=True)
    key = _identity_finetune_key(model_cfg, base_cfg, ft_cfg, oracle_world)
    path = os.path.join(
        _cache_dir(),
        f"metrics_full_idft_{key}_{EVAL_SAMPLES}_{EVAL_SEED}_{EVAL_STEPS}.json",
    )
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    metrics = E.evaluate(
        params,
        model_cfg,
        oracle_world,
        n_samples=EVAL_SAMPLES,
        seed=EVAL_SEED,
        steps=EVAL_STEPS,
        use_identity=True,
    )
    C.write_json(path, metrics, indent=2)
    return metrics


@pytest.fixture(scope="session")
def variant_metrics(trained_variants, oracle_world):
    """variant -> evaluation metrics over the fixed seeded prompt set."""
    out = {}
    for variant, (params, model_cfg) in trained_variants.items():
        train_cfg = E.TrainConfig(steps=TRAIN_STEPS, seed=TRAIN_SEED)
        out[variant] = _evaluate_cached(params, model_cfg, train_cfg, oracle_world)
    return out
