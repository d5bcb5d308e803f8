"""Helpers for the tests of engine's forked workers: faults planted in
`model.denoiser_forward` of the caller or of a worker forked after the patch,
and a deadline for a call that must not hang."""

import contextlib
import multiprocessing
import os
import signal

from shotrope import model as M


def fail_in(process, error, at_call=1):
    """A denoiser_forward that calls error() at its at_call-th call in the
    caller or in the worker, forked after it is patched in."""
    forward, caller, calls = M.denoiser_forward, os.getpid(), []

    def failing(*args, **kwargs):
        if (os.getpid() == caller) == (process == "caller"):
            calls.append(1)
            if len(calls) == at_call:
                error()
        return forward(*args, **kwargs)

    return failing


def raising(cls, message):
    def error():
        raise cls(message)

    return error


def kill_the_worker():
    """SIGKILL the one worker and wait until it has died, its pipe closed."""
    (worker,) = multiprocessing.active_children()
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(60)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block runs past seconds."""
    def expired(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
