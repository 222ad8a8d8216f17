"""Pooled backends: hardened process and thread fan-out with salvage.

Both backends share one collection loop (:class:`_PoolBackend`) carrying
the per-task recovery discipline: completed futures keep their results,
and only the tasks that crashed, hung past the per-task timeout, or
raised are re-executed serially, in payload order.  Because the serial
path *is* the reference path (the same function on the same payload), a
partially-recovered run is bit-identical to an all-serial run.

The backends differ only in the executor they drive and in what "worker
death" means there:

* :class:`ProcessPoolBackend` — ``ProcessPoolExecutor``; payloads must
  pickle (probed up front, with a counted in-process fallback when they
  do not), a dead worker surfaces as ``BrokenProcessPool``, and a wedged
  worker is terminated with the pool.
* :class:`ThreadPoolBackend` — ``ThreadPoolExecutor`` for I/O-shaped
  work; nothing needs to pickle, workers share the interpreter (chaos
  "kill" raises :class:`~repro.exec.backend.ChaosKilledTask` instead of
  exiting), and a task that outlives ``timeout_s`` is abandoned — its
  thread cannot be terminated, so arm hang drills with a short
  ``REPRO_CHAOS_HANG_S``.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence

from repro import telemetry
from repro.exec.backend import (
    CHAOS_KILL_ENV,
    DEFAULT_RETRY_POLICY,
    ChaosKilledTask,
    ExecutionBackend,
    RetryPolicy,
    _chaos_indices,
    chaos_hang,
)

_UNPICKLABLE_ERRORS = (
    pickle.PicklingError,
    AttributeError,
    TypeError,
    OSError,
    ImportError,
)


def _process_task(args: tuple):
    """Process-worker wrapper: apply chaos hooks, then run the real task."""
    fn, index, payload = args
    if index in _chaos_indices(CHAOS_KILL_ENV):
        os._exit(1)
    chaos_hang(index)
    return fn(payload)


def _thread_task(args: tuple):
    """Thread-worker wrapper: chaos "death" raises instead of exiting."""
    fn, index, payload = args
    if index in _chaos_indices(CHAOS_KILL_ENV):
        raise ChaosKilledTask(f"chaos hook killed thread task {index}")
    chaos_hang(index)
    return fn(payload)


class _PoolBackend(ExecutionBackend):
    """Shared hardened collection loop over an injectable executor."""

    #: Probe payload picklability before opening the pool.
    _pickle_probe = False
    #: Exception classes meaning "the pool itself died under this future".
    _broken_pool_errors: tuple = ()

    def __init__(
        self, pool_factory: Optional[Callable[[int], object]] = None
    ):
        """``pool_factory`` overrides the executor constructor (tests)."""
        self._pool_factory = pool_factory

    # -- per-executor hooks -------------------------------------------------

    def _default_pool_factory(self) -> Callable[[int], object]:
        raise NotImplementedError

    def _worker_entry(self) -> Callable:
        """The module-level wrapper submitted for every task."""
        raise NotImplementedError

    def _terminate(self, pool) -> None:
        """Best-effort hard stop of a pool whose workers may be wedged."""
        raise NotImplementedError

    # -- the hardened loop --------------------------------------------------

    def map_tasks(
        self,
        fn: Callable,
        payloads: Sequence,
        *,
        max_workers: int,
        timeout_s: Optional[float] = None,
        label: str = "exec",
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> list:
        timeout_s = self._resolve_limits(max_workers, timeout_s)
        registry = telemetry.get()
        n_tasks = len(payloads)
        registry.add(f"{label}.tasks", n_tasks)
        if n_tasks == 0:
            return []
        if max_workers == 1 or n_tasks == 1:
            return self._run_serial(fn, payloads)

        if self._pickle_probe:
            try:
                pickle.dumps(list(payloads))
            except _UNPICKLABLE_ERRORS:
                registry.add(f"{label}.fallback.unpicklable")
                return self._run_serial(fn, payloads)

        pool_factory = self._pool_factory or self._default_pool_factory()
        entry = self._worker_entry()
        results: List = [None] * n_tasks
        failed: List[int] = []
        first_error: Optional[BaseException] = None
        pool = pool_factory(min(max_workers, n_tasks))
        pool_dead = False
        try:
            try:
                futures = [
                    pool.submit(entry, (fn, index, payload))
                    for index, payload in enumerate(payloads)
                ]
            except _UNPICKLABLE_ERRORS:
                if not self._pickle_probe:
                    raise
                registry.add(f"{label}.fallback.unpicklable")
                return self._run_serial(fn, payloads)
            for index, future in enumerate(futures):
                if pool_dead:
                    if future.done() and not future.cancelled():
                        try:
                            results[index] = future.result()
                            continue
                        except BaseException:
                            pass
                    failed.append(index)
                    continue
                try:
                    results[index] = future.result(timeout=timeout_s)
                except concurrent.futures.TimeoutError as exc:
                    registry.add(f"{label}.retry.timeout")
                    failed.append(index)
                    first_error = first_error or exc
                    # A wedged worker can starve every queued task; stop
                    # waiting, salvage whatever already finished, and hand
                    # the rest to the serial retry.
                    self._terminate(pool)
                    pool_dead = True
                except self._broken_pool_errors as exc:
                    registry.add(f"{label}.retry.broken_pool")
                    failed.append(index)
                    first_error = first_error or exc
                except concurrent.futures.CancelledError as exc:
                    failed.append(index)
                    first_error = first_error or exc
                except Exception as exc:
                    # A genuine task exception: retry serially so a
                    # deterministic failure surfaces with a direct
                    # traceback.
                    registry.add(f"{label}.retry.error")
                    failed.append(index)
                    first_error = first_error or exc
        finally:
            if not pool_dead:
                pool.shutdown(wait=True)

        if failed:
            if not retry.serial_rerun:
                raise first_error
            registry.add(f"{label}.serial_reruns", len(failed))
            with registry.span(f"{label}.serial_rerun", tasks=len(failed)):
                for index in failed:
                    results[index] = fn(payloads[index])
        return results


class ProcessPoolBackend(_PoolBackend):
    """Hardened ``ProcessPoolExecutor`` fan-out for CPU-bound tasks.

    Adds the pickle-probe in-process fallback and BrokenProcessPool
    salvage to the shared per-task-timeout salvage and failed-task-only
    serial re-run.
    """

    name = "process"
    _pickle_probe = True
    _broken_pool_errors = (BrokenProcessPool,)

    def _default_pool_factory(self) -> Callable[[int], object]:
        return ProcessPoolExecutor

    def _worker_entry(self) -> Callable:
        return _process_task

    def _terminate(self, pool) -> None:
        processes = getattr(pool, "_processes", None)
        if processes:
            for process in list(processes.values()):
                try:
                    process.terminate()
                except (OSError, AttributeError, ValueError):
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # pragma: no cover - pre-3.9 signature safety net
            pool.shutdown(wait=False)


class ThreadPoolBackend(_PoolBackend):
    """``ThreadPoolExecutor`` fan-out for I/O-shaped work.

    Payloads never cross a process boundary, so nothing needs to pickle
    and per-worker telemetry capture relies on
    :func:`repro.telemetry.scoped` thread-local registries.  Salvage
    semantics match the process backend, with one honest difference: a
    timed-out task's thread cannot be terminated, only abandoned, so the
    pool is shut down without waiting and the stragglers' results are
    discarded when they eventually finish.
    """

    name = "thread"
    _pickle_probe = False
    _broken_pool_errors = (concurrent.futures.BrokenExecutor,)

    def _default_pool_factory(self) -> Callable[[int], object]:
        return ThreadPoolExecutor

    def _worker_entry(self) -> Callable:
        return _thread_task

    def _terminate(self, pool) -> None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # pragma: no cover - pre-3.9 signature safety net
            pool.shutdown(wait=False)
