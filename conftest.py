"""Settings shared by both test paths, tests/ and perfbench/."""

import faulthandler
import os
import signal

import pytest

# far above the slowest test (about 2 s), so only a test that hangs reaches it
TEST_TIME_LIMIT_S = 120
_stderr = 2


def pytest_configure(config):
    """Keep a copy of stderr from before any test captures it, for the fallback's dump."""
    global _stderr
    _stderr = os.dup(2)


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S instead of hanging the suite: by
    SIGALRM where the platform has it, else by dumping every thread's stack and exiting."""
    if not hasattr(signal, "SIGALRM"):
        faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=_stderr)
        yield
        faulthandler.cancel_dump_traceback_later()
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
