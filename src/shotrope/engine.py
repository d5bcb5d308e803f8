"""Training loop, flow sampler, reference-shot protocol, and metrics."""

from __future__ import annotations

import contextlib
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import model as M
from . import synthetic as S
from . import tensor as T
from .shots import PackedLayout
from .synthetic import ShotPrompt, build_captions, build_layout
from .tensor import ConfigError, GradTape, NumericError, ShapeError, Tensor, config_from_dict


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_size: int = 2
    lr: float = 1e-3
    train_timesteps: int = 1000
    train_shift: float = 5.0
    weight_decay: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    shot_count_range: tuple = (1, 4)
    shot_len_range: tuple = (2, 6)
    pmt2v: bool = False  # identity-conditioning fine-tune mode
    id_dropout: float = 0.1

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1 or self.lr <= 0 or self.seed < 0:
            raise ConfigError("steps, batch size and learning rate must be positive, seed >= 0")
        betas_ok = 0 <= self.beta1 < 1 and 0 <= self.beta2 < 1
        # train draws a timestep as an int64 in [1, train_timesteps]
        if not 1 <= self.train_timesteps <= 2**63 - 1 or self.train_shift < 1 or not betas_ok:
            raise ConfigError(f"train timesteps must lie in [1, {2**63 - 1}] (int64), "
                              "shift >= 1, and betas in [0, 1)")
        if self.adam_eps <= 0 or self.weight_decay < 0 or not 0 <= self.id_dropout <= 1:
            raise ConfigError("adam_eps must be > 0, weight_decay >= 0, id_dropout in [0, 1]")
        self.shot_count_range = tuple(self.shot_count_range)
        self.shot_len_range = tuple(self.shot_len_range)
        for lo_hi in (self.shot_count_range, self.shot_len_range):
            if len(lo_hi) != 2 or not 1 <= lo_hi[0] <= lo_hi[1]:
                raise ConfigError(f"shot ranges must be [lo, hi], 1 <= lo <= hi: {list(lo_hi)}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return config_from_dict(cls, "train", d)


def shift_timesteps(n_steps, shift):
    """Descending tau schedule; fixed points at 1 and 0."""
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    if not 1 <= shift < np.inf:
        raise ConfigError(f"shift must be finite and >= 1, got {shift}")
    return shift_map(np.linspace(1.0, 0.0, n_steps + 1), shift)


def shift_map(u, shift):
    """Shifted time of uniform time u: biased towards high noise for shift > 1."""
    return shift * u / (1.0 + (shift - 1.0) * u)


class AdamW:
    """Decoupled weight decay; state keyed by parameter name."""

    def __init__(self, params, cfg):
        self.cfg = cfg
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, params):
        """Count a step and update each parameter of params that has a
        gradient: params maps names to Tensors, or yields (name, Tensor)
        pairs, each once its gradient is complete."""
        self.t += 1
        for name, p in params.items() if isinstance(params, dict) else params:
            self.update(name, p)

    def update(self, name, p):
        """Update parameter name, p, in place by its gradient, if it has one,
        at the step count t.  The update consumes p.grad: it uses the array
        as scratch and sets p.grad to None."""
        g = p.grad
        if g is None:
            return
        p.grad = None
        c = self.cfg
        b1c = 1.0 - c.beta1 ** self.t
        b2c = 1.0 - c.beta2 ** self.t
        m = self.m[name]
        v = self.v[name]
        m *= c.beta1
        m += (1.0 - c.beta1) * g
        g *= g
        g *= 1.0 - c.beta2
        v *= c.beta2
        v += g
        # update = (m / b1c) / (sqrt(v / b2c) + eps) + wd * p, times lr
        update = m / b1c
        denom = v / b2c
        np.sqrt(denom, out=denom)
        denom += c.adam_eps
        update /= denom
        update += c.weight_decay * p.data
        update *= c.lr
        p.data -= update


def train(model_cfg, train_cfg, world, params=None, log_hook=None):
    """Run the rectified-flow training loop; returns (params, loss_log).

    Each step draws every sample's timestep, noise and dropouts in sample order
    and runs each sample's forward and backward on a tape of its own, so one
    sample's activations are alive at a time.  A parameter's gradient is its
    contributions from the samples' tapes, sample B-1's first, each tape's in
    replay order, added by tensor.accumulate as one tape over the batch would
    add them: the first is the .grad and the rest go on with +=.  A call of
    at least TRAIN_WORKER_MIN_STEPS steps at batch 2 or more, where
    _may_fork_worker says a second CPU is free, forks a worker that runs each
    step's largest sample there on weights both processes share.  This
    process adds each parameter's contributions in that same order as soon as
    the worker's backward has made its last one, and runs its AdamW update
    while the rest of that backward runs, so the bits are the in-process
    loop's (README, Determinism); once all are updated, it sends the
    worker its sample of the next step.  No update runs before both
    processes' losses are known to be finite.  A step that raises leaves
    no .grad behind, and no worker outlives the call; one that raises while
    the worker's gradients are being applied leaves the step partly applied.
    A non-finite loss raises NumericError at its step; after the last
    step, whose update no loss reads, a non-finite parameter raises it too.
    """
    if params is None:
        params = M.init_params(model_cfg, train_cfg.seed)
    log = []
    with contextlib.ExitStack() as stack:
        worker = None
        if _forks_train_worker(train_cfg):
            worker = stack.enter_context(_train_worker(params, model_cfg, train_cfg, world))
        opt = AdamW(params, train_cfg)  # made after the fork: the worker holds no moments
        draws = _step_draws(model_cfg, train_cfg, world, 0)
        for step in range(train_cfg.steps):
            theirs = None if worker is None else _worker_sample(draws)
            try:
                losses, held = _own_gradients(params, model_cfg, train_cfg, world, draws, theirs)
                if worker is not None:
                    losses[theirs] = Tensor(worker.recv())
                total = losses[0]
                for extra in losses[1:]:
                    total = T.add(total, extra)
                loss_val = float(T.scale(total, 1.0 / len(losses)).data)
                if not np.isfinite(loss_val):
                    raise NumericError(f"training diverged at step {step}: loss={loss_val}")
                draws = (_step_draws(model_cfg, train_cfg, world, step + 1)
                         if step + 1 < train_cfg.steps else None)
                opt.step(params if worker is None else worker.gradients(params, held))
                if worker is not None and draws is not None:
                    worker.send(draws[_worker_sample(draws)])  # the weights are updated
            except BaseException:
                for p in params.values():
                    p.grad = None
                raise
            smoothed = float(np.mean([row[1] for row in log[-49:]] + [loss_val]))  # last 50 losses
            log.append((step, loss_val, smoothed))
            if log_hook is not None:
                log_hook(step, loss_val, smoothed)
    diverged = [name for name, p in params.items() if not np.isfinite(p.data).all()]
    if diverged:
        raise NumericError(
            f"training diverged at step {train_cfg.steps - 1}: "
            f"{len(diverged)} of {len(params)} parameters are not finite, e.g. {diverged[0]}"
        )
    return params, log


def _step_draws(model_cfg, train_cfg, world, step):
    """Step step's batch, drawn from T.seeded_rng(train_cfg.seed, step), and
    each sample's (sample, tau, eps, captions, null_id) in sample order."""
    rng = T.seeded_rng(train_cfg.seed, step)
    batch_seed = int(rng.integers(2**62))
    batch = S.make_batch(
        world,
        train_cfg.batch_size,
        shot_count_range=train_cfg.shot_count_range,
        shot_len_range=train_cfg.shot_len_range,
        seed=batch_seed,
    )
    draws = []
    for sample in batch:
        i_t = int(rng.integers(1, train_cfg.train_timesteps + 1))
        tau = float(shift_map(i_t / train_cfg.train_timesteps, train_cfg.train_shift))
        eps = rng.standard_normal(sample.tokens.shape).astype(np.float32)
        captions = M.apply_caption_dropout(sample.captions, model_cfg.caption_dropout, rng)
        null_id = train_cfg.pmt2v and rng.uniform() < train_cfg.id_dropout
        draws.append((sample, tau, eps, captions, null_id))
    return draws


def _sample_loss(params, model_cfg, train_cfg, world, draw, batch_size):
    """One sample's forward on a tape of its own; returns the tape, the
    sample's loss Tensor and its share of the batch's loss, which the
    tape's backward starts from."""
    sample, tau, eps, captions, null_id = draw
    with GradTape() as tape:
        if train_cfg.pmt2v:
            id_row = (params["caption/null_id"] if null_id
                      else identity_embedding(params, world, sample.id_index))
            captions = condition_identity(captions, id_row)
        z_tau = M.make_noisy(sample.tokens, eps, tau)
        pred = M.denoiser_forward(z_tau, tau, captions, sample.layout, model_cfg, params)
        loss = M.rf_loss(pred, sample.tokens, eps)
        return tape, loss, T.scale(loss, 1.0 / batch_size)


def _worker_sample(draws):
    """The sample the train worker runs: the one of most tokens, the first of
    a tie, so that the caller, which also adds and applies the gradients,
    runs the smaller share."""
    return max(range(len(draws)), key=lambda s: draws[s][0].layout.total_tokens)


def _own_gradients(params, model_cfg, train_cfg, world, draws, theirs):
    """Run every sample of draws but theirs, the worker's, last to first;
    returns their losses in sample order, None in theirs' place, and what
    they hold back.  A sample that theirs precedes in the order of addition
    holds its contributions, name -> list in that order; every other adds
    them to params' .grad as they come."""
    losses, held = [None] * len(draws), {}
    for s in reversed(range(len(draws))):
        if s != theirs:
            tape, losses[s], scaled = _sample_loss(params, model_cfg, train_cfg, world, draws[s],
                                                   len(draws))
            if theirs is not None and theirs > s:
                for name, g in tape.backward(scaled, leaves=params):
                    held.setdefault(name, []).append(g)
            else:
                tape.backward(scaled)
    return losses, held


def identity_embedding(params, world, id_index):
    """The [1, d_model] caption row of pool identity id_index: its vector
    projected into the caption embedding space, on the tape when one is open."""
    row = Tensor(world.ids[id_index][None, :])
    return T.add(T.matmul(row, params["id_proj/w"]), params["id_proj/b"])


def condition_identity(captions, id_row):
    """The bundle whose every kept caption starts with id_row, a [1, d_model]
    identity row Tensor; caption_context checks its shape."""
    return replace(captions, id_row=id_row)


# fewest steps of a training call that runs each step's largest sample in a
# forked worker.  Default-model trainings at batch 2, one BLAS thread, 5
# alternating runs a point, took worker/in-process median wall time 0.89 at
# 1 step (worst run 1.04), where the fork costs about what the step saves,
# 0.68 at 2, 0.75 at 3 (worst 1.07), 0.66 at 5, 0.63 at 8 (worst 0.67), 0.67
# at 12 and 0.55 at 20; so a warm-up of a step or two and the tests' few-step
# calls stay in-process (ROADMAP item 20)
TRAIN_WORKER_MIN_STEPS = 8

# fewest rows x steps of a guided sampling call that runs its unconditional
# branch in a forked worker.  With the worker pinned off the caller's CPU, a
# 50-step call took 0.98x the time of an in-process call that ran both branches
# in one stacked forward a step at 16 rows, where a step is mostly Python
# overhead, 0.78x at 32 and 0.62-0.71x at 48-192 rows; a 144-row call took
# 0.87x at 2 steps and 0.65x at 8 (ROADMAP, "What the second CPU adds")
BRANCH_WORKER_MIN_ROW_STEPS = 1024


def usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads(count=None):
    """The number of threads BLAS runs, after setting it to count when count
    is given.  It is read from, and set in, the loaded OpenBLAS where numpy's
    bundled one exports its thread calls.  Elsewhere count is not set, and
    the number is the environment's, which OpenBLAS reads only when it
    loads: the first of its variables set to a positive number, or None
    when none is and OpenBLAS runs a thread per CPU."""
    import ctypes  # here: importing it with the engine would add to set-up time

    try:  # dlsym on numpy's core extension searches the libraries it loaded
        core = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = core.scipy_openblas_get_num_threads64_, core.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            value = os.environ.get(name, "").strip()
            if value.isdigit() and int(value) > 0:
                return int(value)
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    if count is not None:
        set_(count)
    return get()


def _may_fork_worker():
    """Whether a forked worker may run on a second CPU that nothing else of this
    process uses: one exists, BLAS runs one thread (a threaded BLAS in both
    processes made guided sampling calls 6-22x slower), this process is not a
    multiprocessing worker, whose pool has the other CPUs, and a fork is safe
    here, in a process of one Python thread."""
    if usable_cpus() < 2 or blas_threads() != 1 or not hasattr(os, "fork"):
        return False
    import multiprocessing  # here: importing it with the engine would add to set-up time
    import threading

    return multiprocessing.parent_process() is None and threading.active_count() == 1


def _forks_branch_worker(rows, steps):
    """Whether a guided sampling call of steps steps on a field of rows rows runs
    its unconditional branch in a forked worker: above the gate, where
    _may_fork_worker says so."""
    return rows * steps >= BRANCH_WORKER_MIN_ROW_STEPS and _may_fork_worker()


def _forks_train_worker(train_cfg):
    """Whether a training call runs each step's largest sample in a forked
    worker: above the gate, at batch 2 or more, where _may_fork_worker says so."""
    return (train_cfg.steps >= TRAIN_WORKER_MIN_STEPS and train_cfg.batch_size >= 2
            and _may_fork_worker())


def _other_cpus():
    """The CPUs this process may run on but the one it runs on now, or None
    when the platform cannot say."""
    import ctypes

    here = getattr(ctypes.CDLL(None), "sched_getcpu", None)
    if here is None or not hasattr(os, "sched_setaffinity"):
        return None
    here.argtypes, here.restype = [], ctypes.c_int
    return (os.sched_getaffinity(0) - {here()}) or None


def _worker_main(target, conn, callers_end, cpus, args):
    """A forked worker: pinned to cpus, run target(conn, *args) until it returns
    or the caller closes its end; an exception target raises is sent back."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    callers_end.close()  # so that the caller's exit closes the pipe
    if cpus is not None:
        with contextlib.suppress(OSError):  # unpinned, it still runs
            os.sched_setaffinity(0, cpus)
    try:
        target(conn, *args)
    except EOFError:  # the caller is done
        return
    except Exception as exc:  # a pickle keeps its class and message
        conn.send(exc)


@contextlib.contextmanager
def _forked_worker(what, target, *args):
    """Fork a worker that runs target(conn, *args), pinned off the caller's CPU,
    and yield (send, recv), the caller's end of conn.  recv raises an
    exception the worker sends, and either raises ChildProcessError once the
    worker, named what, has died.  The worker is joined before this returns
    or raises."""
    import multiprocessing  # here: importing it with the engine would add to set-up time

    fork = multiprocessing.get_context("fork")
    ours, theirs = fork.Pipe()
    worker = fork.Process(target=_worker_main, daemon=True,
                          args=(target, theirs, ours, _other_cpus(), args))
    worker.start()
    theirs.close()

    def died():
        worker.join()
        return ChildProcessError(f"{what} died with exit code {worker.exitcode}")

    def send(message):
        try:
            ours.send(message)
        except ConnectionError as exc:
            raise died() from exc

    def recv():
        try:
            got = ours.recv()
        except (EOFError, ConnectionError) as exc:
            raise died() from exc
        if isinstance(got, Exception):
            raise got
        return got

    try:
        yield send, recv
    finally:
        ours.close()
        worker.terminate()  # idle, or mid-step after an error in the caller
        worker.join()


def _unconditional_branch(params, cfg, captions, packed):
    """The unconditional branch of a guided sampling call of captions on
    packed: a function of (tau, z) that returns the guidance-1 velocity
    Tensor under their null_captions, whose conditioning is built here, once."""
    uncond = tuple(map(M.null_captions, captions))
    cond = M.conditioning(uncond, packed, cfg, params)
    return lambda tau, z: M.denoiser_forward(z, tau, uncond, packed, cfg, params, cond=cond)


def _branch_loop(conn, params, cfg, captions, packed):
    """The branch worker's work: for each (tau, z) conn receives, send back the
    unconditional branch's velocity array."""
    branch = _unconditional_branch(params, cfg, captions, packed)
    while True:
        tau, z = conn.recv()
        conn.send(branch(tau, z).data)


@contextlib.contextmanager
def _branch_worker(params, cfg, captions, packed):
    """Fork a worker for the unconditional branch of captions on packed, and
    yield unconditional(tau, z): it hands the step to the worker and returns
    a function that waits for the branch's velocity Tensor (_forked_worker)."""
    with _forked_worker("the unconditional-branch worker of a sampling call", _branch_loop,
                        params, cfg, captions, packed) as (send, recv):

        def unconditional(tau, z):
            send((tau, z))
            return lambda: Tensor(recv())

        yield unconditional


def _arena(params):
    """A slot of each parameter's shape and dtype, all in one anonymous shared
    mmap, so that a process forked after this sees what the other writes."""
    import mmap  # here: importing it with the engine would add to set-up time

    sizes = [-(-p.data.nbytes // 64) * 64 for p in params.values()]  # 64-byte aligned
    buf = mmap.mmap(-1, sum(sizes))
    slots, offset = {}, 0
    for (name, p), size in zip(params.items(), sizes):
        slots[name] = np.frombuffer(buf, p.dtype, p.data.size, offset).reshape(p.shape)
        offset += size
    return slots


def _train_loop(conn, arena, params, model_cfg, train_cfg, world):
    """The train worker's work, a step at a time: run the step's largest
    sample and send its loss; then, as its backward makes parameters'
    gradients final, send their names in batches, each with its
    contributions in replay order, the first put in its arena slot and None
    in its place.  A batch goes once it holds an eighth of the weights'
    bytes, or as many bytes as are not yet final, so that the last ones,
    which the caller updates after the backward, are small.  Then wait for
    the next step's sample, which the caller sends once it has updated the
    weights.
    Only one process sends at a time: the caller reads until every name has
    come, and then this process reads."""
    draws = _step_draws(model_cfg, train_cfg, world, 0)
    draw = draws[_worker_sample(draws)]
    total = sum(p.data.nbytes for p in params.values())
    while True:
        tape, loss, scaled = _sample_loss(params, model_cfg, train_cfg, world, draw,
                                          train_cfg.batch_size)
        conn.send(loss.data)
        batch, size, left, entries = [], 0, total, {}
        for name, g in tape.replay(scaled, params):
            if g is None:
                batch.append((name, entries.pop(name, [])))
                nbytes = params[name].data.nbytes
                size, left = size + nbytes, left - nbytes
                if size >= min(total / 8, left):  # the last batch at left 0
                    conn.send(batch)
                    batch, size = [], 0
                continue
            mine, slot = entries.setdefault(name, []), arena[name]
            first = not mine and g.shape == slot.shape and g.dtype == slot.dtype
            if first:
                slot[...] = g
            mine.append(None if first else g)
        draw = conn.recv()


class _TrainWorker:
    """The caller's side of the train worker: recv returns its next message,
    send sends it the next step's sample, its word that the weights are
    updated, and gradients yields the step's gradients as they come."""

    def __init__(self, send, recv, arena):
        self.send, self.recv, self.arena = send, recv, arena

    def gradients(self, params, held):
        """Yield each (name, p) of params once the worker names it, p.grad
        then its step's gradient: its contributions of the worker's sample,
        in replay order, added to .grad, then those held, from
        _own_gradients."""
        left = len(params)
        while left:
            for name, entries in self.recv():
                p = params[name]
                for g in entries:  # None: the first, in the arena
                    T.accumulate(p, self.arena[name] if g is None else g)
                for g in held.pop(name, ()):
                    T.accumulate(p, g)
                left -= 1
                yield name, p


@contextlib.contextmanager
def _train_worker(params, model_cfg, train_cfg, world):
    """Move params' data into shared memory, fork the train worker of a
    training call on them, and yield its _TrainWorker (_forked_worker)."""
    import ctypes

    for p, slot in zip(params.values(), _arena(params).values()):
        slot[...] = p.data
        p.data = slot
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:  # glibc: hand the private copies' pages back, or they stay resident
        trim(0)
    arena = _arena(params)
    with _forked_worker("the train worker", _train_loop,
                        arena, params, model_cfg, train_cfg, world) as (send, recv):
        yield _TrainWorker(send, recv, arena)


def _sample_fields(params, cfg, world, specs, z, steps, shift, guidance, id_embedding):
    """Euler integration of the guided velocity field from z at tau = 1, the
    specs run as one field packed from their layouts; one field per spec.
    Each step is one guidance-1 forward of the conditional branch c and, at
    guidance g != 1, one of the unconditional branch u, combined as
    u + g (c - u) (model.guided).  u runs in a forked worker when
    _forks_branch_worker says so, and here after c otherwise, with the same
    bits (README, Determinism).  Each branch's conditioning is built once.
    A step that leaves a non-finite field raises NumericError."""
    if not abs(guidance) <= float(np.finfo(np.float32).max):  # also refuses NaN
        raise ConfigError(f"guidance must be finite in float32, got {guidance}")
    packed = PackedLayout(tuple(build_layout(spec, world) for spec in specs))
    captions = tuple(build_captions(spec) for spec in specs)
    if id_embedding is not None:
        captions = tuple(condition_identity(c, id_embedding) for c in captions)
    taus = shift_timesteps(steps, shift)
    cond = M.conditioning(captions, packed, cfg, params)
    with contextlib.ExitStack() as stack:
        if guidance == 1.0:
            unconditional = None
        elif _forks_branch_worker(packed.total_tokens, steps):
            unconditional = stack.enter_context(_branch_worker(params, cfg, captions, packed))
        else:
            branch = _unconditional_branch(params, cfg, captions, packed)

            def unconditional(tau, z):  # the branch runs when the step asks, after c
                return lambda: branch(tau, z)

        for i in range(steps):
            tau = float(taus[i])
            u = None if unconditional is None else unconditional(tau, z)
            v = M.denoiser_forward(z, tau, captions, packed, cfg, params, cond=cond)
            v = (v if u is None else M.guided(v, u(), guidance)).data
            dtau = float(taus[i + 1] - taus[i])
            z = (z + np.float32(dtau) * v.astype(np.float32)).astype(np.float32)
            if not np.isfinite(z).all():
                raise NumericError(f"sampling step {i} of {steps} left a non-finite field")
    return packed.unpack(z)


def sample(
    params,
    cfg,
    world,
    spec,
    steps=50,
    shift=5.0,
    guidance=5.0,
    seed=0,
    init_noise=None,
    id_embedding=None,
):
    """Euler integration of the guided velocity field from pure noise."""
    n_tokens = build_layout(spec, world).total_tokens
    if init_noise is None:
        z = T.seeded_rng(seed).standard_normal((n_tokens, world.d_token)).astype(np.float32)
    else:
        z = np.asarray(init_noise, dtype=np.float32).copy()
        if z.shape != (n_tokens, world.d_token):
            raise ShapeError("init noise shape does not match spec layout")
    return _sample_fields(params, cfg, world, [spec], z, steps, shift, guidance, id_embedding)[0]


def sample_infinite(
    params,
    cfg,
    world,
    ref_prompt,
    ref_noise,
    new_specs,
    seed=0,
    steps=50,
    shift=5.0,
    guidance=5.0,
    id_embedding=None,
):
    """Fixed-reference generation: shot 0 is constant across attempts.

    Each attempt samples [ref_prompt] + its extra shots, exactly as
    `sample` would from the same noise.  All attempts are integrated
    together, one step at a time, in one PackedLayout field that holds
    shot 0 once; an attempt that adds no shot is an empty segment of it
    and returns that shot 0.
    """
    if not cfg.use_ref:
        raise ConfigError("sample_infinite requires the full+refattn variant")
    ref_noise = np.asarray(ref_noise, dtype=np.float32)
    n0 = build_layout([ref_prompt], world).total_tokens
    if ref_noise.shape != (n0, world.d_token):
        raise ShapeError("reference noise shape does not match reference prompt")
    specs = [[ref_prompt] + list(extra) for extra in new_specs]
    if not specs:
        return []
    noise = [ref_noise]
    for a, spec in enumerate(specs):
        rng = T.seeded_rng(seed, a)
        n_new = build_layout(spec, world).total_tokens - n0
        noise.append(rng.standard_normal((n_new, world.d_token)).astype(np.float32))
    z = np.concatenate(noise, axis=0)
    return _sample_fields(params, cfg, world, specs, z, steps, shift, guidance, id_embedding)


# the oracle metrics of metrics_on_field, in the order reports list them
METRIC_KEYS = ("identity_consistency", "scene_adherence", "cut_accuracy")


def metrics_on_field(tokens, spec, layout, world):
    """The three synthetic-oracle metrics for one generated field."""
    ids = S.decode_identity(tokens, world, layout)
    n = layout.shot_count
    if n > 1:
        norm = ids / (np.linalg.norm(ids, axis=1, keepdims=True) + 1e-12)
        sims = norm @ norm.T
        iu = np.triu_indices(n, k=1)
        identity = float(sims[iu].mean())
    else:
        identity = 1.0
    scenes = S.decode_scene(tokens, world, layout)
    wanted = np.array([p.scene for p in spec])
    adherence = float(np.mean(scenes == wanted))
    frame_scenes = S.decode_scene_frames(tokens, world, layout)
    boundaries = set(np.cumsum(layout.frame_counts)[:-1].tolist())
    changes = set((np.nonzero(np.diff(frame_scenes))[0] + 1).tolist())
    cut = float(changes == boundaries)
    return dict(zip(METRIC_KEYS, (identity, adherence, cut)))


def mean_metrics(records):
    """The mean of each oracle metric over metrics_on_field records."""
    return {key: float(np.mean([r[key] for r in records])) for key in METRIC_KEYS}


def identity_match(tokens, world, layout, id_index):
    """Whether the nearest pool identity to the field's decoded identity,
    averaged over its shots, is id_index."""
    mean_id = S.decode_identity(tokens, world, layout).mean(axis=0)
    return int(np.argmax(world.ids @ mean_id)) == id_index


def eval_specs(world, n_samples, seed, frame_range=(2, 4)):
    """Fixed evaluation prompts of three shots: distinct scenes across shots."""
    if n_samples < 1:
        raise ConfigError(f"evaluation needs at least one prompt, got n_samples={n_samples}")
    shots = 3
    if world.v_scene < shots:
        raise ConfigError(f"evaluation prompts need {shots} scenes, the world has {world.v_scene}")
    rng = T.seeded_rng(seed, 10**6)
    specs = []
    for _ in range(n_samples):
        scenes = rng.choice(world.v_scene, size=shots, replace=False)
        motions = rng.integers(world.v_mot, size=shots)
        frames = rng.integers(frame_range[0], frame_range[1] + 1, size=shots)
        specs.append(
            [
                ShotPrompt(frames=int(f), scene=int(sc), motion=int(mo))
                for f, sc, mo in zip(frames, scenes, motions)
            ]
        )
    return specs


def evaluate(params, cfg, world, n_samples=32, seed=0, steps=50, use_identity=False):
    """Oracle metrics over a fixed seeded prompt set.

    With use_identity=True each prompt is additionally conditioned on a
    seeded identity drawn from the world's pool (requires a model trained
    with identity conditioning).
    """
    specs = eval_specs(world, n_samples, seed)
    id_rng = T.seeded_rng(seed, 10**6 + 1)
    records = []
    matches = []
    for i, spec in enumerate(specs):
        id_emb = id_index = None
        if use_identity:
            id_index = int(id_rng.integers(world.n_ids))
            id_emb = identity_embedding(params, world, id_index)
        layout = build_layout(spec, world)
        tokens = sample(
            params, cfg, world, spec, steps=steps, seed=seed + 7919 * (i + 1), id_embedding=id_emb
        )
        records.append(metrics_on_field(tokens, spec, layout, world))
        if use_identity:
            matches.append(identity_match(tokens, world, layout, id_index))
    out = mean_metrics(records)
    if use_identity:
        out["identity_match"] = float(np.mean(matches))
    out["n_samples"] = n_samples
    out["seed"] = seed
    return out
