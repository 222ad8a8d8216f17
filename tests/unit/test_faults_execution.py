"""Tests for the process-pool seam that fault-injected runs go through
(:class:`repro.exec.ProcessPoolBackend`): validation, serial paths,
per-task recovery and the chaos hooks.

Faults are injected two ways — a fake executor whose futures fail
deterministically (fast, no subprocesses) and the ``REPRO_CHAOS_*``
environment hooks against a real process pool (end to end).  The
backend-parametrized contract lives in ``test_exec_backends.py``; this
module pins the process backend on its own.
"""

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.exec import CHAOS_KILL_ENV, ProcessPoolBackend


@pytest.fixture(autouse=True)
def _null_registry():
    telemetry.disable()
    yield
    telemetry.disable()


def _square(x):
    return x * x


class _LazyFuture:
    """A future resolved at ``result()`` time: a scripted exception wins,
    otherwise the task runs in-process."""

    def __init__(self, fn, args, error=None):
        self._fn = fn
        self._args = args
        self._error = error

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._fn(self._args)

    def done(self):
        return True

    def cancelled(self):
        return False


class _FakePool:
    """Executor double whose behaviour is scripted per task index.

    ``plan[index]`` may be an exception instance (raised by that future) or
    absent (the task runs in-process and succeeds when resolved).
    """

    def __init__(self, plan):
        self.plan = plan
        self.submitted = 0

    def __call__(self, max_workers):  # pool_factory signature
        return self

    def submit(self, fn, args):
        index = self.submitted
        self.submitted += 1
        return _LazyFuture(fn, args, error=self.plan.get(index))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestValidation:
    def test_max_workers_below_one_rejected(self):
        backend = ProcessPoolBackend()
        with pytest.raises(ConfigurationError):
            backend.map_tasks(_square, [1], max_workers=0)
        with pytest.raises(ConfigurationError):
            backend.map_tasks(_square, [1], max_workers=-2)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend().map_tasks(
                _square, [1, 2], max_workers=2, timeout_s=0.0
            )


class TestSerialPaths:
    def test_empty_payloads(self):
        assert ProcessPoolBackend().map_tasks(_square, [], max_workers=4) == []

    def test_single_task_runs_serially(self):
        assert ProcessPoolBackend().map_tasks(_square, [5], max_workers=4) == [25]

    def test_unpicklable_payload_falls_back(self):
        registry = telemetry.enable()
        payloads = [lambda: 1, lambda: 2]  # lambdas cannot cross a pool
        results = ProcessPoolBackend().map_tasks(
            lambda f: f(), payloads, max_workers=2, label="t"
        )
        assert results == [1, 2]
        assert registry.snapshot()["counters"]["t.fallback.unpicklable"] == 1


class TestFakePoolRecovery:
    def test_all_tasks_succeed(self):
        backend = ProcessPoolBackend(pool_factory=_FakePool({}))
        assert backend.map_tasks(_square, [1, 2, 3], max_workers=3) == [1, 4, 9]

    def test_broken_pool_reruns_only_failed_tasks(self):
        registry = telemetry.enable()
        pool = _FakePool({1: BrokenProcessPool("worker died")})
        results = ProcessPoolBackend(pool_factory=pool).map_tasks(
            _square, [1, 2, 3], max_workers=3, label="t"
        )
        assert results == [1, 4, 9]
        counters = registry.snapshot()["counters"]
        assert counters["t.retry.broken_pool"] == 1
        assert counters["t.serial_reruns"] == 1
        assert counters["t.tasks"] == 3

    def test_cancelled_future_joins_serial_retry(self):
        pool = _FakePool({0: concurrent.futures.CancelledError()})
        results = ProcessPoolBackend(pool_factory=pool).map_tasks(
            _square, [3, 4], max_workers=2, label="t"
        )
        assert results == [9, 16]


class TestRealPoolChaos:
    def test_plain_pooled_run_matches_serial(self):
        pooled = ProcessPoolBackend().map_tasks(_square, [1, 2, 3, 4], max_workers=2)
        assert pooled == [_square(p) for p in [1, 2, 3, 4]]

    def test_killed_worker_recovers_per_task(self, monkeypatch):
        monkeypatch.setenv(CHAOS_KILL_ENV, "1")
        registry = telemetry.enable()
        results = ProcessPoolBackend().map_tasks(
            _square, [1, 2, 3], max_workers=2, label="t"
        )
        assert results == [1, 4, 9]
        counters = registry.snapshot()["counters"]
        # At least the killed task was retried.  Under heavy load the pool
        # can break before any future is collected, so every task may join
        # the serial retry — the deterministic "completed tasks never
        # re-run" pin lives in the scripted _FakePool tests above.
        assert counters.get("t.retry.broken_pool", 0) >= 1
        assert 1 <= counters["t.serial_reruns"] <= 3

    def test_chaos_hooks_do_not_reach_serial_retries(self, monkeypatch):
        # Killing every task index still converges: the serial retry calls
        # fn directly, bypassing the worker-side chaos wrapper.
        monkeypatch.setenv(CHAOS_KILL_ENV, "0,1,2")
        results = ProcessPoolBackend().map_tasks(_square, [1, 2, 3], max_workers=2)
        assert results == [1, 4, 9]
