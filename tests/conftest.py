"""A time limit per test, so that a fault which makes a test loop fails that
test instead of hanging the suite.

The limit is a ``SIGALRM`` timer, which POSIX systems have; where the signal
does not exist the fixture does nothing.
"""

import signal

import pytest

LIMIT = 30.0  # seconds; the slowest test takes about 1.3 s on a 2-vCPU machine


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the running test once it has taken ``LIMIT`` seconds."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past the {LIMIT:g} s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
