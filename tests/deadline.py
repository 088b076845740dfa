"""A wall-clock bound on a step of a test, so that a hang fails the test
instead of stalling the suite."""

from __future__ import annotations

import contextlib
import signal


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the body once it has run ``seconds``.

    The alarm is delivered to the main thread between Python bytecodes, so
    it stops a Python loop, and a C call once it returns.
    """
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
