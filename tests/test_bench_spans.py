"""The benchmark's span table names functions of shotrope; a rename that
drops one would silently zero its per-layer metric, and a second forward
that no span wraps would do the same to the forward's."""

import collections
import functools
import importlib
import os

import numpy as np
import pytest

from shotrope import engine as E
from shotrope import model as M
from shotrope import synthetic as S

SPANS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")

# names the span table lists that the program no longer has
KNOWN_ABSENT = {"tensor.slice_cols", "tensor.concat_cols"}


@functools.cache
def _spans():
    """The namespace of the benchmark's span table, read without importing
    it, so that nothing is written under perfbench/."""
    namespace = {"__name__": "perfbench_spans"}
    with open(SPANS_PY) as fh:
        exec(compile(fh.read(), SPANS_PY, "exec"), namespace)
    return namespace


def _resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_span_and_counter_resolves():
    table = _spans()["SPANS"] + _spans()["COUNTERS"]
    absent = {name for name, module, path in table if not _resolves(module, path)}
    assert absent <= KNOWN_ABSENT, f"absent from shotrope: {sorted(absent - KNOWN_ABSENT)}"


WORLD = S.SyntheticWorld(seed=2, d_token=32, v_scene=4, v_mot=2)
CFG = M.DenoiserConfig(
    d_model=32, blocks=2, heads=2, d_token=32, v_scene=4, v_mot=2, variant="full+refattn"
)
PARAMS = M.init_params(CFG, seed=4)
STEPS = 2


def _span_counts(run):
    """How often each span fired while run() ran under the benchmark's tracer."""
    with _spans()["Tracer"]() as tracer:
        run()
    return collections.Counter(name for name, *_ in tracer.spans())


@pytest.mark.parametrize("guidance", [1.0, 5.0])
@pytest.mark.parametrize("job", ["sample", "sample_infinite"])
def test_model_forward_span_sees_every_sampling_step(job, guidance):
    """Each sampling step is one traced model.forward a guidance branch, two
    at guidance 5 and one at guidance 1, and each forward runs each block's
    self- and cross-attention once: the self-attention as one attention
    kernel call over every segment, the folded cross-attention with none."""
    ref = E.ShotPrompt(1, 0)
    if job == "sample":
        def run():
            E.sample(PARAMS, CFG, WORLD, [ref, E.ShotPrompt(2, 1)], steps=STEPS,
                     guidance=guidance, seed=3)
    else:
        noise = np.zeros((WORLD.height * WORLD.width, WORLD.d_token), dtype=np.float32)
        attempts = [[E.ShotPrompt(2, 1)], [E.ShotPrompt(1, 2), E.ShotPrompt(1, 3)]]

        def run():
            E.sample_infinite(PARAMS, CFG, WORLD, ref, noise, attempts, steps=STEPS,
                              guidance=guidance, seed=3)
    counts = _span_counts(run)
    forwards = STEPS * (1 if guidance == 1.0 else 2)
    assert counts["model.forward"] == forwards
    assert counts["attention.self"] == counts["attention.cross"] == CFG.blocks * forwards
    assert counts["attention.scaled_dot"] == CFG.blocks * forwards
