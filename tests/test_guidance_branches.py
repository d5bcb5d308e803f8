"""A guided sampling step is two guidance-1 `model.denoiser_forward` calls,
one a branch, combined by `model.guided` in `engine`: in-process, or with the
unconditional branch in a forked worker.  Either way the sampler must give the
bits of the two-forwards-a-step loop kept here as the reference."""

import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from forking import deadline, fail_in, kill_the_worker, raising
from shotrope import engine as E
from shotrope import model as M
from shotrope import synthetic as S
from shotrope import tensor as T
from shotrope.shots import PackedLayout
from shotrope.tensor import ConfigError

# a 4x4 grid: a 1-frame shot is a 16-row field, the smallest the sampler makes
WORLD = S.SyntheticWorld(seed=2, d_token=32, v_scene=4, v_mot=2)
STEPS = 3


def _model(variant):
    cfg = M.DenoiserConfig(d_model=32, blocks=2, d_token=32, v_scene=4, v_mot=2, variant=variant)
    params = M.init_params(cfg, seed=4)
    # the head is zero at init; give the field a velocity that reads the captions
    rng = np.random.default_rng(5)
    params["head/w"].data[...] = rng.standard_normal(params["head/w"].shape).astype(np.float32)
    return params, cfg


MODELS = {variant: _model(variant) for variant in M.VARIANTS}


def reference_fields(params, cfg, world, specs, z, steps, shift, guidance, id_embedding):
    """The guided sampler as two denoiser_forward calls a step: the
    conditional branch, then (unless guidance is 1) the unconditional one,
    combined as v_u + g (v_c - v_u)."""
    packed = PackedLayout(tuple(E.build_layout(spec, world) for spec in specs))
    captions = tuple(E.build_captions(spec) for spec in specs)
    if id_embedding is not None:
        captions = tuple(E.condition_identity(c, id_embedding) for c in captions)
    uncond = tuple(M.null_captions(c) for c in captions)
    taus = E.shift_timesteps(steps, shift)
    for i in range(steps):
        tau = float(taus[i])
        v_c = M.denoiser_forward(z, tau, captions, packed, cfg, params).data
        if guidance == 1.0:
            v = v_c
        else:
            v_u = M.denoiser_forward(z, tau, uncond, packed, cfg, params).data
            v = v_u + guidance * (v_c - v_u)
        dtau = float(taus[i + 1] - taus[i])
        z = (z + np.float32(dtau) * v.astype(np.float32)).astype(np.float32)
    return packed.unpack(z)


SPECS = {
    "1-shot-1-frame": [E.ShotPrompt(1, 0)],
    "2-shots": [E.ShotPrompt(2, 1, 1), E.ShotPrompt(1, 2)],
    "3-shots": [E.ShotPrompt(1, 3), E.ShotPrompt(3, 0, 1), E.ShotPrompt(2, 2)],
    "4-shots": [E.ShotPrompt(1, 0), E.ShotPrompt(2, 1), E.ShotPrompt(1, 2, 1), E.ShotPrompt(2, 3)],
}


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
@pytest.mark.parametrize("identity", [False, True], ids=["plain", "identity"])
@pytest.mark.parametrize("guidance", [1.0, 5.0])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_sample_equals_the_two_forward_sampler(variant, guidance, identity, spec):
    params, cfg = MODELS[variant]
    emb = E.identity_embedding(params, WORLD, 3) if identity else None
    got = E.sample(
        params, cfg, WORLD, spec, steps=STEPS, guidance=guidance, seed=9, id_embedding=emb
    )
    n = E.build_layout(spec, WORLD).total_tokens
    z = T.seeded_rng(9).standard_normal((n, WORLD.d_token)).astype(np.float32)
    (want,) = reference_fields(params, cfg, WORLD, [spec], z, STEPS, 5.0, guidance, emb)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("identity", [False, True], ids=["plain", "identity"])
@pytest.mark.parametrize("guidance", [1.0, 5.0])
def test_sample_infinite_equals_the_two_forward_sampler(guidance, identity):
    params, cfg = MODELS["full+refattn"]
    emb = E.identity_embedding(params, WORLD, 1) if identity else None
    ref = E.ShotPrompt(1, 0, 1)
    attempts = [[E.ShotPrompt(2, 1)], [], [E.ShotPrompt(1, 3), E.ShotPrompt(3, 2, 1)]]
    n0 = WORLD.height * WORLD.width
    ref_noise = np.random.default_rng(6).standard_normal((n0, WORLD.d_token)).astype(np.float32)
    got = E.sample_infinite(
        params, cfg, WORLD, ref, ref_noise, attempts, seed=8, steps=STEPS, guidance=guidance,
        id_embedding=emb,
    )
    specs = [[ref] + extra for extra in attempts]
    noise = [ref_noise]
    for a, spec in enumerate(specs):
        n_new = E.build_layout(spec, WORLD).total_tokens - n0
        noise.append(T.seeded_rng(8, a).standard_normal((n_new, WORLD.d_token)).astype(np.float32))
    want = reference_fields(
        params, cfg, WORLD, specs, np.concatenate(noise), STEPS, 5.0, guidance, emb
    )
    assert len(got) == len(want) == 3
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("other", [
    [E.ShotPrompt(1, 0), E.ShotPrompt(2, 1)], [E.ShotPrompt(1, 0), E.ShotPrompt(3, 1)]
], ids=["more-rows", "same-rows"])
def test_a_conditioning_of_another_forward_is_refused(other):
    """A conditioning built for another layout, even one of as many rows,
    raises ConfigError instead of giving a field of the wrong shape or
    tables; the one built for the forward gives the forward's own bits."""
    params, cfg = MODELS["full"]
    spec = [E.ShotPrompt(2, 0), E.ShotPrompt(2, 1)]
    layout, captions = E.build_layout(spec, WORLD), E.build_captions(spec)
    z = np.zeros((layout.total_tokens, WORLD.d_token), dtype=np.float32)
    cond = M.conditioning(captions, layout, cfg, params)
    want = M.denoiser_forward(z, 0.5, captions, layout, cfg, params)
    got = M.denoiser_forward(z, 0.5, captions, layout, cfg, params, cond=cond)
    assert np.array_equal(got.data, want.data)
    wrong = M.conditioning(E.build_captions(other), E.build_layout(other, WORLD), cfg, params)
    with pytest.raises(ConfigError):
        M.denoiser_forward(z, 0.5, captions, layout, cfg, params, cond=wrong)


def test_a_conditioning_of_other_captions_is_refused():
    """A conditioning built for other captions of the same layout, or for
    the same captions with another identity row Tensor, raises ConfigError
    instead of giving a field conditioned on the captions it was built for,
    and so does the conditional branch's for the unconditional one; the one
    bundle and the tuple of it are the same captions."""
    params, cfg = MODELS["full"]
    spec = [E.ShotPrompt(2, 0), E.ShotPrompt(2, 1)]
    layout, captions = E.build_layout(spec, WORLD), E.build_captions(spec)
    z = np.zeros((layout.total_tokens, WORLD.d_token), dtype=np.float32)
    row = T.Tensor(np.ones((1, cfg.d_model), dtype=np.float32))
    with_id, copied_id = (E.condition_identity(captions, r) for r in (row, T.Tensor(row.data)))
    assert with_id == E.condition_identity(captions, row) and with_id != copied_id
    other = E.build_captions([E.ShotPrompt(2, 2), E.ShotPrompt(2, 3)])
    for built, run in ((other, captions), (with_id, copied_id), (captions, with_id),
                       (captions, M.null_captions(captions))):
        cond = M.conditioning(built, layout, cfg, params)
        with pytest.raises(ConfigError):
            M.denoiser_forward(z, 0.5, run, layout, cfg, params, cond=cond)
    cond = M.conditioning(captions, layout, cfg, params)
    want = M.denoiser_forward(z, 0.5, captions, layout, cfg, params)
    got = M.denoiser_forward(z, 0.5, (captions,), layout, cfg, params, cond=cond)
    assert np.array_equal(got.data, want.data)


# The branch worker: a guided sampling call at or above the gate, in a
# process with a second CPU and one BLAS thread, runs its unconditional
# branch in a forked worker.  Every worker-path field below is at or above the
# gate: 96 rows (6 frames) or more, WORKER_STEPS steps.
WORKER_STEPS = -(-E.BRANCH_WORKER_MIN_ROW_STEPS // 96)
WORKER_SPEC = SPECS["3-shots"]
WORKER_REF = E.ShotPrompt(1, 0, 1)
WORKER_ATTEMPTS = [[E.ShotPrompt(2, 1)], [], [E.ShotPrompt(1, 3), E.ShotPrompt(3, 2, 1)]]


@pytest.fixture
def gate_open(monkeypatch):
    """The gate as in a process with two CPUs and one BLAS thread; yields the
    list each forked worker appends to; no worker is left afterwards."""
    monkeypatch.setattr(E, "blas_threads", lambda: 1)
    monkeypatch.setattr(E, "usable_cpus", lambda: 2)
    started = _count_workers(monkeypatch)
    yield started
    assert multiprocessing.active_children() == []


def _count_workers(monkeypatch):
    started, real = [], E._branch_worker

    def counted(*args):
        started.append(1)
        return real(*args)

    monkeypatch.setattr(E, "_branch_worker", counted)
    return started


def _in_process(monkeypatch, run):
    """run() with both branches in-process."""
    with monkeypatch.context() as m:
        m.setattr(E, "_forks_branch_worker", lambda *a: False)
        return run()


def _sample_worker_field(variant, identity=False):
    params, cfg = MODELS[variant]
    emb = E.identity_embedding(params, WORLD, 3) if identity else None
    return E.sample(params, cfg, WORLD, WORKER_SPEC, steps=WORKER_STEPS, guidance=5.0, seed=9,
                    id_embedding=emb)


@pytest.mark.parametrize("variant", ["vanilla", "tcrope", "full"])
def test_the_worker_path_has_the_in_process_bits(gate_open, monkeypatch, variant):
    want = _in_process(monkeypatch, lambda: _sample_worker_field(variant))
    assert gate_open == []
    got = _sample_worker_field(variant)
    assert gate_open == [1]
    assert np.array_equal(got, want)


def test_a_worker_path_continuation_has_the_in_process_bits(gate_open, monkeypatch):
    """A packing of attempts, one of them empty, with an identity row."""
    params, cfg = MODELS["full+refattn"]
    emb = E.identity_embedding(params, WORLD, 1)
    ref_noise = np.random.default_rng(6).standard_normal((16, WORLD.d_token)).astype(np.float32)

    def run():
        return E.sample_infinite(params, cfg, WORLD, WORKER_REF, ref_noise, WORKER_ATTEMPTS,
                                 seed=8, steps=WORKER_STEPS, guidance=5.0, id_embedding=emb)

    want = _in_process(monkeypatch, run)
    got = run()
    assert gate_open == [1]
    assert len(got) == len(want) == 3
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_the_caller_runs_one_conditional_forward_a_step(gate_open, monkeypatch):
    """The caller embeds the captions once and makes one forward a step, of
    the conditional branch; the worker's forwards, of the unconditional one
    in its own process, are not counted here."""
    calls, contexts = [], []
    forward, context = M.denoiser_forward, M.caption_context
    caller = os.getpid()

    def counted(*args, **kwargs):
        if os.getpid() == caller:
            calls.append(args[2])
        return forward(*args, **kwargs)

    def embedded(*args, **kwargs):
        if os.getpid() == caller:
            contexts.append(args[0])
        return context(*args, **kwargs)

    monkeypatch.setattr(M, "denoiser_forward", counted)
    monkeypatch.setattr(M, "caption_context", embedded)
    _sample_worker_field("full")
    assert gate_open == [1]
    assert calls == [(E.build_captions(WORKER_SPEC),)] * WORKER_STEPS
    assert contexts == [(E.build_captions(WORKER_SPEC),)]


@pytest.mark.parametrize("cls", [ConfigError, T.ShapeError, T.NumericError])
def test_an_error_in_the_worker_comes_back_with_its_class_and_message(gate_open, monkeypatch,
                                                                      cls):
    monkeypatch.setattr(M, "denoiser_forward", fail_in("worker", raising(cls, "in the worker"), 3))
    with pytest.raises(cls, match="^in the worker$"):
        _sample_worker_field("full")
    assert gate_open == [1]


def test_an_error_in_the_caller_leaves_no_worker(gate_open, monkeypatch):
    workers = []

    def error():
        workers.extend(multiprocessing.active_children())
        raise T.NumericError("in the caller")

    monkeypatch.setattr(M, "denoiser_forward", fail_in("caller", error, 3))
    with pytest.raises(T.NumericError, match="in the caller"):
        _sample_worker_field("full")
    assert len(workers) == 1 and workers[0].exitcode is not None
    with pytest.raises(ProcessLookupError):  # joined, so not even a zombie
        os.kill(workers[0].pid, 0)


@pytest.mark.parametrize("death, code", [
    (lambda: fail_in("worker", lambda: os._exit(3), 2), 3),
    (lambda: fail_in("caller", kill_the_worker, 2), -signal.SIGKILL),
], ids=["exits", "killed"])
def test_a_worker_that_dies_does_not_hang_the_caller(gate_open, monkeypatch, death, code):
    monkeypatch.setattr(M, "denoiser_forward", death())
    with deadline(60), pytest.raises(ChildProcessError, match=f"exit code {code}$"):
        _sample_worker_field("full")
    assert gate_open == [1]


@pytest.mark.parametrize(
    "change", ["one-cpu", "blas-threads", "guidance-1", "below-gate", "another-thread"]
)
def test_no_worker_without_a_free_cpu_or_below_the_gate(gate_open, monkeypatch, change):
    """One usable CPU, a BLAS of two threads, guidance 1, a call below the
    gate or a second Python thread, in which a fork is unsafe, runs both
    branches in-process."""
    params, cfg = MODELS["full"]
    steps, guidance = WORKER_STEPS, 5.0
    if change == "one-cpu":
        monkeypatch.setattr(E, "usable_cpus", lambda: 1)
    elif change == "blas-threads":
        monkeypatch.setattr(E, "blas_threads", lambda: 2)
    elif change == "guidance-1":
        guidance = 1.0
    elif change == "below-gate":
        steps -= 1
    assert 96 * (steps + 1) >= E.BRANCH_WORKER_MIN_ROW_STEPS
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if change == "another-thread":
        other.start()
    try:
        E.sample(params, cfg, WORLD, WORKER_SPEC, steps=steps, guidance=guidance, seed=9)
    finally:
        release.set()
        if other.is_alive():
            other.join(60)
    assert gate_open == []


def test_no_worker_when_the_loaded_blas_runs_two_threads(monkeypatch):
    """The gate asks the loaded BLAS for its thread count: an environment
    that says one thread, set after OpenBLAS read it at load, opens no
    worker while BLAS runs two."""
    threads = E.blas_threads()
    if E.blas_threads(2) != 2:
        pytest.skip("the loaded BLAS does not say or set its thread count")
    try:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(E, "usable_cpus", lambda: 2)
        started = _count_workers(monkeypatch)
        _sample_worker_field("full")
        assert started == []
    finally:
        E.blas_threads(threads)


def test_no_worker_inside_a_multiprocessing_worker(gate_open):
    """A sampling call in a process that multiprocessing started, such as one of
    ablate's pool workers, runs both branches there."""
    fork = multiprocessing.get_context("fork")
    ours, theirs = fork.Pipe()

    def child():
        field = _sample_worker_field("full")
        theirs.send((len(gate_open), field))

    worker = fork.Process(target=child)
    worker.start()
    assert ours.poll(60)
    started, field = ours.recv()
    worker.join(60)
    assert worker.exitcode == 0
    assert started == 0
    assert np.array_equal(field, _sample_worker_field("full"))
    assert gate_open == [1]
