"""Shared fixtures.

Training the ablation variants dominates the suite's runtime, so trained
parameters and their evaluation metrics are cached on disk keyed by a
hash of every input that determines them: the run's configuration and
the numerics fingerprint of `tools/bitcheck.py`.  The fingerprint hashes
what under a second of training, tape backward, attention and sampling
computes, so code that computes other bits in those runs, through a
change to the numerics or a BLAS that picks other kernels, looks up
other keys and retrains rather than reusing weights and metrics it would
no longer produce.  The metrics keys also fold in the scoring fingerprint,
which hashes the evaluation prompts and the metric code on fixed fields,
so a change to the scoring alone rescores the cached checkpoints rather
than serving metrics the code would no longer compute.  Each fingerprint
is computed once per session, when the first key needs it.  Cache files
are written atomically.  Delete the cache
directory (tests/.cache by default, override with SHOTROPE_TEST_CACHE)
to force retraining.
"""

import functools
import hashlib
import json
import os

import pytest

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

_BASE_TRAIN = E.TrainConfig(steps=TRAIN_STEPS, seed=TRAIN_SEED)
_ID_FT_TRAIN = E.TrainConfig(steps=ID_FT_STEPS, seed=ID_FT_SEED, pmt2v=True)

BITCHECK_PY = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bitcheck.py")


@functools.cache
def _bitcheck():
    """The namespace of tools/bitcheck.py, read without importing it, so
    that nothing is written under tools/."""
    namespace = {"__name__": "bitcheck", "__file__": BITCHECK_PY}
    with open(BITCHECK_PY) as fh:
        exec(compile(fh.read(), BITCHECK_PY, "exec"), namespace)
    return namespace


@functools.cache
def _fingerprint():
    return _bitcheck()["fingerprint"]()


@functools.cache
def _scoring_fingerprint():
    return _bitcheck()["scoring_fingerprint"]()


def pytest_collection_modifyitems(items):
    """Mark every test that reaches the trained checkpoints, so that
    `-m "not needs_checkpoints"` runs the rest on an empty cache untrained."""
    for item in items:
        if "trained_variants" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.needs_checkpoints)


@pytest.fixture(scope="session")
def bitcheck():
    return _bitcheck()


@pytest.fixture(scope="session")
def numerics_fingerprint():
    return _fingerprint()


def _cache_dir():
    default = os.path.join(os.path.dirname(__file__), ".cache")
    path = os.environ.get("SHOTROPE_TEST_CACHE", default)
    os.makedirs(path, exist_ok=True)
    return path


def _hash_key(config):
    """16 hex digits of the SHA-256 of config as sorted-key JSON."""
    blob = json.dumps(config, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _run_key(model_cfg, world, **extra):
    config = run_config_dict(model_cfg, _BASE_TRAIN, world)
    return _hash_key({**config, "fingerprint": _fingerprint(), **extra})


def _metrics_path(stem, key):
    return os.path.join(
        _cache_dir(), f"metrics_{stem}_{key}_{EVAL_SAMPLES}_{EVAL_SEED}_{EVAL_STEPS}.json"
    )


def _load_or_train(path, train, sidecar):
    """The parameters cached at path, else train()'s, saved there with sidecar."""
    if os.path.exists(path) and os.path.exists(C.sidecar_path(path)):
        tensors, _ = C.load_checkpoint(path)
        return {name: Tensor(arr, requires_grad=True) for name, arr in tensors.items()}
    params, _ = train()
    C.save_checkpoint(path, params, sidecar)
    return params


def _load_or_evaluate(path, params, model_cfg, world, **kwargs):
    """The metrics cached at path, else E.evaluate's on the fixed prompt set, saved there."""
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    metrics = E.evaluate(
        params, model_cfg, world, n_samples=EVAL_SAMPLES, seed=EVAL_SEED, steps=EVAL_STEPS,
        **kwargs,
    )
    C.write_json(path, metrics, indent=2)
    return metrics


def _train_cached(model_cfg, world):
    return _load_or_train(
        os.path.join(_cache_dir(), f"ckpt_{model_cfg.variant}_{_run_key(model_cfg, world)}.ecsh"),
        lambda: E.train(model_cfg, _BASE_TRAIN, world),
        run_config_dict(model_cfg, _BASE_TRAIN, world),
    )


def _evaluate_cached(params, model_cfg, world):
    key = _run_key(model_cfg, world, scoring=_scoring_fingerprint())
    return _load_or_evaluate(_metrics_path(model_cfg.variant, key), params, model_cfg, world)


@pytest.fixture(scope="session")
def oracle_world():
    return S.SyntheticWorld(seed=WORLD_SEED)


@pytest.fixture(scope="session")
def trained_variants(oracle_world):
    """variant -> (params, model config) for the three ablation variants."""
    out = {}
    for variant in ABLATION_VARIANTS:
        model_cfg = M.DenoiserConfig(variant=variant)
        out[variant] = (_train_cached(model_cfg, oracle_world), model_cfg)
    return out


def _identity_finetune_key(model_cfg, world, **extra):
    return _hash_key(
        {
            "base": run_config_dict(model_cfg, _BASE_TRAIN, world),
            "ft": _ID_FT_TRAIN.to_dict(),
            "fingerprint": _fingerprint(),
            **extra,
        }
    )


@pytest.fixture(scope="session")
def identity_finetuned(trained_variants, oracle_world):
    """(params, model config) of the full model after the identity fine-tune."""
    base_params, model_cfg = trained_variants["full"]
    key = _identity_finetune_key(model_cfg, oracle_world)

    def finetune():
        params = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in base_params.items()}
        return E.train(model_cfg, _ID_FT_TRAIN, oracle_world, params=params)

    sidecar = {
        "model": model_cfg.to_dict(),
        "base_train": _BASE_TRAIN.to_dict(),
        "finetune": _ID_FT_TRAIN.to_dict(),
        "world": oracle_world.config(),
    }
    path = os.path.join(_cache_dir(), f"ckpt_full_idft_{key}.ecsh")
    return _load_or_train(path, finetune, sidecar), model_cfg


@pytest.fixture(scope="session")
def identity_model_metrics(identity_finetuned, oracle_world):
    """Identity-conditioned metrics of the fine-tuned full model."""
    params, model_cfg = identity_finetuned
    key = _identity_finetune_key(model_cfg, oracle_world, scoring=_scoring_fingerprint())
    path = _metrics_path("full_idft", key)
    return _load_or_evaluate(path, params, model_cfg, oracle_world, use_identity=True)


@pytest.fixture(scope="session")
def variant_metrics(trained_variants, oracle_world):
    """variant -> evaluation metrics over the fixed seeded prompt set."""
    return {
        variant: _evaluate_cached(params, model_cfg, oracle_world)
        for variant, (params, model_cfg) in trained_variants.items()
    }
