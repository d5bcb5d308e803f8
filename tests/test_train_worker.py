"""A training step adds each parameter's gradient contributions from the
samples' tapes in one order: sample B-1's first, each tape's in replay order.
`engine.train` does so in-process, or with each step's largest sample run in a
forked worker on weights both processes share, whose contributions the caller
adds in their place and applies as the worker's backward makes them final.
Either way the weights and the loss log must have the in-process bits."""

import gc
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
from shotrope.tensor import ConfigError, GradTape, NumericError, ShapeError, Tensor

WORLD = S.SyntheticWorld(seed=2, d_token=32, d_id=8, v_scene=4, v_mot=2, height=2, width=2)
SMALL = dict(d_model=24, blocks=1, heads=2, ffn_mult=2, d_token=32, d_id=8, v_scene=4, v_mot=2)


def _model_cfg(variant="full", **kw):
    return M.DenoiserConfig(variant=variant, **SMALL, **kw)


def _train_cfg(steps=None, **kw):
    """1-3 shots of 1-2 frames a sample, so that a sample's tape gives the
    caption tables one contribution per kept shot; at the gate by default."""
    base = dict(steps=E.TRAIN_WORKER_MIN_STEPS, batch_size=2, seed=4,
                shot_count_range=(1, 3), shot_len_range=(1, 2))
    if steps is not None:
        base["steps"] = steps
    return E.TrainConfig(**{**base, **kw})


@pytest.fixture
def gate_open(monkeypatch):
    """The gate as in a process with two CPUs and one BLAS thread; yields the
    list each forked train worker appends to; no worker is left afterwards."""
    monkeypatch.setattr(E, "blas_threads", lambda: 1)
    monkeypatch.setattr(E, "usable_cpus", lambda: 2)
    started, real = [], E._train_worker

    def counted(*args):
        started.append(1)
        return real(*args)

    monkeypatch.setattr(E, "_train_worker", counted)
    yield started
    assert multiprocessing.active_children() == []


def _train(model_cfg, train_cfg, log_hook=None, params=None):
    params = M.init_params(model_cfg, 6) if params is None else params
    _, log = E.train(model_cfg, train_cfg, WORLD, params=params, log_hook=log_hook)
    return params, log


def _in_process(monkeypatch, run):
    """run() with every sample in-process."""
    with monkeypatch.context() as m:
        m.setattr(E, "_forks_train_worker", lambda *a: False)
        return run()


def _same(got, want):
    (p_got, log_got), (p_want, log_want) = got, want
    assert log_got == log_want
    assert p_got.keys() == p_want.keys()
    for name in p_want:
        assert np.array_equal(p_got[name].data, p_want[name].data), name


CASES = {
    **{variant: (variant, {}, {}) for variant in M.VARIANTS},
    "full-pmt2v": ("full", {}, dict(pmt2v=True, id_dropout=0.5)),
    "full+refattn-pmt2v": ("full+refattn", {}, dict(pmt2v=True, id_dropout=0.5)),
    "caption-dropout": ("full", dict(caption_dropout=0.5), {}),
    "batch-3": ("full", {}, dict(batch_size=3)),
    "batch-4": ("full", {}, dict(batch_size=4)),
    # per-sample sums once kept the bits for 20 steps and lost them by step 60
    "steps-40": ("full", {}, dict(steps=40)),
}


@pytest.mark.parametrize("variant, model_kw, train_kw", CASES.values(), ids=CASES.keys())
def test_the_worker_path_has_the_in_process_bits(gate_open, monkeypatch, variant, model_kw,
                                                  train_kw):
    model_cfg, train_cfg = _model_cfg(variant, **model_kw), _train_cfg(**train_kw)
    want = _in_process(monkeypatch, lambda: _train(model_cfg, train_cfg))
    assert gate_open == []
    got = _train(model_cfg, train_cfg)
    assert gate_open == [1]
    _same(got, want)


def test_messages_that_outgrow_the_pipe_both_ways_do_not_hang_a_step(gate_open, monkeypatch):
    """Samples of equal size, so that the caller, which also draws and
    updates, is the longer path; each step's draw, tokens and noise, and
    the worker's caption-table contributions, 64 x 256 floats a repeated
    shot, each come to more than the 208 KiB of a Linux socket's default
    buffer.  The call ends in time with the in-process bits."""
    world = S.SyntheticWorld(seed=2, d_token=512, d_id=8, v_scene=64, v_mot=64,
                             height=4, width=4)
    model_cfg = M.DenoiserConfig(variant="full", d_model=256, blocks=1, heads=2, ffn_mult=1,
                                 d_token=512, d_id=8, v_scene=64, v_mot=64)
    train_cfg = _train_cfg(shot_count_range=(3, 3), shot_len_range=(2, 2))

    def run():
        params = M.init_params(model_cfg, 6)
        return params, E.train(model_cfg, train_cfg, world, params=params)[1]

    want = _in_process(monkeypatch, run)
    draw = E._step_draws(model_cfg, train_cfg, world, 1)[0]
    assert draw[0].tokens.nbytes + draw[2].nbytes > 2**18
    with deadline(60):
        got = run()
    assert gate_open == [1]
    _same(got, want)


def test_the_worker_takes_either_place_in_the_order_of_addition():
    """Over the bit tests' batch-2 steps the worker's sample is sample 1,
    whose contributions come first, and sample 0, whose come last; at batch
    3 it is also the middle one, which the caller's sample 2 precedes and
    its sample 0 follows."""
    for batch_size, places in ((2, {0, 1}), (3, {1})):
        cfg = _train_cfg(batch_size=batch_size)
        taken = {E._worker_sample(E._step_draws(_model_cfg(), cfg, WORLD, step))
                 for step in range(cfg.steps)}
        assert places <= taken


class _Stop(Exception):
    """What perfbench's train workload raises from its log hook when time is up."""


@pytest.mark.parametrize("error", [_Stop, KeyboardInterrupt])
def test_a_log_hook_that_raises_leaves_the_last_completed_step(gate_open, monkeypatch, error):
    """No worker outlives the call, no .grad is left, and the weights are
    those of the steps whose update ran."""
    model_cfg, last = _model_cfg(), 3

    def hook(step, loss, smoothed):
        if step == last:
            raise error()

    params = M.init_params(model_cfg, 6)
    with pytest.raises(error):
        _train(model_cfg, _train_cfg(), hook, params)
    assert gate_open == [1]
    assert multiprocessing.active_children() == []
    assert all(p.grad is None for p in params.values())
    want, _ = _in_process(monkeypatch, lambda: _train(model_cfg, _train_cfg(steps=last + 1)))
    for name in want:
        assert np.array_equal(params[name].data, want[name].data), name


def _nan_in(process, at_call):
    """A denoiser_forward whose at_call-th call in the caller or in the
    worker, forked after it is patched in, returns a field of NaN."""
    forward, caller, calls = M.denoiser_forward, os.getpid(), []

    def poisoned(*args, **kwargs):
        out = forward(*args, **kwargs)
        if (os.getpid() == caller) == (process == "caller"):
            calls.append(1)
            if len(calls) == at_call:
                return Tensor(np.full_like(out.data, np.nan))
        return out

    return poisoned


@pytest.mark.parametrize("process", ["caller", "worker"])
def test_a_non_finite_loss_raises_numeric_error_at_its_step(gate_open, monkeypatch, process):
    """Each process runs one sample a step, so the third forward of either
    is in step 2: steps 0 and 1 complete, no .grad is left, and no update
    of step 2 runs, since none may before both losses are known finite."""
    forward = M.denoiser_forward
    monkeypatch.setattr(M, "denoiser_forward", _nan_in(process, 3))
    steps, params = [], M.init_params(_model_cfg(), 6)
    with pytest.raises(NumericError, match="non-finite loss"):
        _train(_model_cfg(), _train_cfg(), lambda step, *_: steps.append(step), params)
    assert gate_open == [1]
    assert steps == [0, 1]
    assert all(p.grad is None for p in params.values())
    monkeypatch.setattr(M, "denoiser_forward", forward)
    want, _ = _in_process(monkeypatch, lambda: _train(_model_cfg(), _train_cfg(steps=2)))
    for name in want:
        assert np.array_equal(params[name].data, want[name].data), name


def test_a_worker_killed_after_a_steps_first_update_does_not_hang_the_caller(gate_open,
                                                                             monkeypatch):
    """The worker dies once the caller has applied the first of step 2's
    gradients: the call raises ChildProcessError in time and leaves no .grad
    and no worker; the step is partly applied (README, Determinism)."""
    update, killed = E.AdamW.update, []

    def killing(opt, name, p):
        if opt.t == 3 and not killed:
            killed.append(name)
            kill_the_worker()
        update(opt, name, p)

    monkeypatch.setattr(E.AdamW, "update", killing)
    steps, params = [], M.init_params(_model_cfg(), 6)
    with deadline(60), pytest.raises(ChildProcessError, match=f"exit code {-signal.SIGKILL}$"):
        _train(_model_cfg(), _train_cfg(), lambda step, *_: steps.append(step), params)
    assert gate_open == [1]
    assert len(killed) == 1 and steps == [0, 1]
    assert multiprocessing.active_children() == []
    assert all(p.grad is None for p in params.values())


def test_the_caller_drops_each_held_contribution_once_it_is_applied(gate_open, monkeypatch):
    """The contributions the caller holds back for after the worker's are
    dropped as each parameter is updated, so none outlives its step: they
    come to a gradient's worth, and kept to the next step they raised the
    caller's peak memory by as much."""
    own, helds = E._own_gradients, []

    def recording(*args):
        losses, held = own(*args)
        helds.append((held, len(held)))
        return losses, held

    monkeypatch.setattr(E, "_own_gradients", recording)
    _train(_model_cfg(), _train_cfg())
    assert gate_open == [1]
    assert any(count for _, count in helds)
    assert all(held == {} for held, _ in helds)


def test_the_worker_runs_no_adamw_and_holds_no_moments(gate_open, monkeypatch):
    """AdamW runs in the caller alone, and is made after the fork, so that
    no optimizer, and no moment array, is in the worker's memory."""
    caller = os.getpid()
    before = [o for o in gc.get_objects() if isinstance(o, E.AdamW)]

    def caller_only(method):
        def checked(opt, *args):
            if os.getpid() != caller:
                raise RuntimeError(f"AdamW.{method.__name__} ran in the train worker")
            return method(opt, *args)
        return checked

    for name in ("__init__", "step", "update"):
        monkeypatch.setattr(E.AdamW, name, caller_only(getattr(E.AdamW, name)))
    loop = E._train_loop

    def checked_loop(*args):
        if any(isinstance(o, E.AdamW) and all(o is not b for b in before)
               for o in gc.get_objects()):
            raise RuntimeError("the train worker holds an optimizer")
        return loop(*args)

    monkeypatch.setattr(E, "_train_loop", checked_loop)
    got = _train(_model_cfg(), _train_cfg())
    assert gate_open == [1]
    _same(got, _in_process(monkeypatch, lambda: _train(_model_cfg(), _train_cfg())))


FINALITY = [(variant, pmt2v) for variant in M.VARIANTS for pmt2v in (False, True)]


@pytest.mark.parametrize("variant, pmt2v", FINALITY,
                         ids=[f"{v}{'-pmt2v' if p else ''}" for v, p in FINALITY])
def test_a_leaf_is_reported_final_once_after_its_last_read(variant, pmt2v):
    """GradTape.replay, the stream the train worker sends as it goes, on the
    samples of two steps: each parameter is reported once, no contribution
    to it comes after, the contributions are backward's list in order and
    bit for bit, and they stay so when each parameter's data turns to NaN
    the moment it is reported, as the caller may update it from then on."""
    model_cfg, train_cfg = _model_cfg(variant), _train_cfg(pmt2v=pmt2v, id_dropout=0.5)
    draws = [d for step in range(2) for d in E._step_draws(model_cfg, train_cfg, WORLD, step)]
    if pmt2v:  # both the null identity row and a projected identity are drawn
        assert {d[4] for d in draws} == {False, True}

    def sample_tape(draw):
        params = M.init_params(model_cfg, 6)
        return params, *E._sample_loss(params, model_cfg, train_cfg, WORLD, draw,
                                       train_cfg.batch_size)

    for draw in draws:
        params, tape, _, scaled = sample_tape(draw)
        want = tape.backward(scaled, leaves=params)
        for poison in (False, True):
            params, tape, _, scaled = sample_tape(draw)
            got, reported = [], []
            for name, g in tape.replay(scaled, params):
                assert name not in reported, f"{name} after it was reported final"
                if g is not None:
                    got.append((name, g))
                    continue
                reported.append(name)
                if poison:
                    params[name].data[...] = np.nan
            assert sorted(reported) == sorted(params)
            assert [name for name, _ in got] == [name for name, _ in want]
            for (name, g), (_, w) in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), name


@pytest.mark.parametrize("cls", [ConfigError, ShapeError, NumericError])
def test_an_error_in_the_worker_comes_back_with_its_class_and_message(gate_open, monkeypatch,
                                                                      cls):
    monkeypatch.setattr(M, "denoiser_forward", fail_in("worker", raising(cls, "in the worker"), 3))
    with pytest.raises(cls, match="^in the worker$"):
        _train(_model_cfg(), _train_cfg())
    assert gate_open == [1]


@pytest.mark.parametrize("death, code", [
    (lambda: fail_in("worker", lambda: os._exit(3), 2), 3),
    (lambda: fail_in("caller", kill_the_worker, 2), -signal.SIGKILL),
], ids=["exits", "killed"])
def test_a_worker_that_dies_does_not_hang_the_caller(gate_open, monkeypatch, death, code):
    monkeypatch.setattr(M, "denoiser_forward", death())
    with deadline(60), pytest.raises(ChildProcessError, match=f"exit code {code}$"):
        _train(_model_cfg(), _train_cfg())
    assert gate_open == [1]


@pytest.mark.parametrize(
    "change", ["one-cpu", "blas-threads", "below-gate", "batch-1", "another-thread"]
)
def test_no_worker_without_a_free_cpu_or_below_the_gate(gate_open, monkeypatch, change):
    """One usable CPU, a BLAS of two threads, a call below the step gate, a
    batch of one sample or a second Python thread, in which a fork is
    unsafe, trains in-process."""
    train_kw = {}
    if change == "one-cpu":
        monkeypatch.setattr(E, "usable_cpus", lambda: 1)
    elif change == "blas-threads":
        monkeypatch.setattr(E, "blas_threads", lambda: 2)
    elif change == "below-gate":
        train_kw["steps"] = E.TRAIN_WORKER_MIN_STEPS - 1
    elif change == "batch-1":
        train_kw["batch_size"] = 1
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if change == "another-thread":
        other.start()
    try:
        _train(_model_cfg(), _train_cfg(**train_kw))
    finally:
        release.set()
        if other.is_alive():
            other.join(60)
    assert gate_open == []


def test_no_worker_inside_a_multiprocessing_worker(gate_open):
    """A training call in a process that multiprocessing started, such as one
    of ablate's pool workers, runs every sample there."""
    fork = multiprocessing.get_context("fork")
    ours, theirs = fork.Pipe()

    def child():
        params, log = _train(_model_cfg(), _train_cfg())
        theirs.send((len(gate_open), {n: p.data for n, p in params.items()}, log))

    worker = fork.Process(target=child)
    worker.start()
    assert ours.poll(60)
    started, data, log = ours.recv()
    worker.join(60)
    assert worker.exitcode == 0
    assert started == 0
    _same(({n: Tensor(a) for n, a in data.items()}, log), _train(_model_cfg(), _train_cfg()))
    assert gate_open == [1]


def test_folded_contributions_are_the_tapes_gradients():
    """On one three-shot sample, the contributions backward returns for the
    parameters, added in replay order by tensor.accumulate, are the .grad the
    accumulating backward leaves, bit for bit.  The caption tables get one
    contribution per kept shot (gather_rows), so they cannot travel as one
    sum per sample: a table gets (g + c1) + c2 from one tape over the batch
    when a later sample's tape contributes c1 and c2, but g + (c1 + c2) from
    an added per-sample sum, and float addition is not associative."""
    model_cfg = _model_cfg("full+refattn", caption_dropout=0.0)
    prompts = [S.ShotPrompt(1, 0, 1), S.ShotPrompt(2, 1), S.ShotPrompt(1, 3, 1)]
    layout, captions = E.build_layout(prompts, WORLD), E.build_captions(prompts)
    rng = np.random.default_rng(3)
    tokens = rng.standard_normal((layout.total_tokens, WORLD.d_token)).astype(np.float32)
    eps = rng.standard_normal(tokens.shape).astype(np.float32)

    def backward(params, leaves):
        with GradTape() as tape:
            z_tau = M.make_noisy(tokens, eps, 0.6)
            pred = M.denoiser_forward(z_tau, 0.6, captions, layout, model_cfg, params)
            return tape.backward(T.scale(M.rf_loss(pred, tokens, eps), 0.5), leaves=leaves)

    accumulated = M.init_params(model_cfg, 6)
    assert backward(accumulated, None) == []
    held = M.init_params(model_cfg, 6)
    contributions = backward(held, held)
    assert all(p.grad is None for p in held.values())
    for name, g in contributions:
        T.accumulate(held[name], g)
    for name, p in accumulated.items():
        assert (p.grad is None) == (held[name].grad is None), name
        if p.grad is not None:
            assert np.array_equal(held[name].grad, p.grad), name
    counts = {}
    for name, _ in contributions:
        counts[name] = counts.get(name, 0) + 1
    assert counts["caption/scene"] == counts["caption/motion"] == len(prompts)
    assert all(n == 1 for name, n in counts.items() if not name.startswith("caption/"))
