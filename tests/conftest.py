import contextlib
import signal

import numpy as np
import pytest

from qfock.fock import FockTensor
from qfock.wickalg import WickElement

Q_GRID = (-0.9, -0.5, 0.0, 0.5, 0.9)


def random_tensor(rng, d, degree):
    return FockTensor(d, rng.standard_normal((d,) * degree))


def random_element(rng, d, max_chaos):
    return WickElement(d, {k: random_tensor(rng, d, k) for k in range(max_chaos + 1)})


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run the given seconds."""
    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def inverse_perm(perm):
    """Inverse of a 1-based one-line permutation."""
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v - 1] = i + 1
    return tuple(out)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
