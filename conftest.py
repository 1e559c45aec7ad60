"""Repo-wide pytest configuration: the Hypothesis policy and the
opt-in per-test watchdog.

Tier-1 is a function of the commit: every property test draws the same
examples on every run (``derandomize``) and keeps no example database,
so a gate cannot pass on one run and fail on the next.  A host without
Hypothesis still collects the non-property tests.

Set ``REPRO_TEST_TIMEOUT`` (seconds) to fail any single test that
hangs — CI uses this for the process backend and the parallel
benchmarks, where a protocol bug would otherwise block on a pipe read
forever instead of failing.  SIGALRM-based, so main-thread/POSIX only;
unset (the default) it does nothing.
"""

from __future__ import annotations

import os
import signal

import pytest

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("repro", derandomize=True, database=None)
    settings.load_profile("repro")

_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "0") or "0")


@pytest.fixture(autouse=_TIMEOUT > 0 and hasattr(signal, "SIGALRM"))
def _per_test_timeout(request):
    def fail(signum, frame):
        raise TimeoutError(
            f"test exceeded REPRO_TEST_TIMEOUT={_TIMEOUT:g}s "
            f"({request.node.nodeid})")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, _TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
