"""Supervised task execution for matrix sweeps.

The bare ``ProcessPoolExecutor`` block the runner used to inline had
three fatal failure modes: one worker crash (``BrokenProcessPool``)
aborted the whole matrix and lost every in-flight result, a hung worker
stalled it forever, and a transient task exception was terminal on the
first occurrence.  The :class:`Supervisor` contains all three:

* **Retries** — a task that raises is re-dispatched up to
  ``REPRO_RETRIES`` times (default 2) with capped exponential backoff
  and a *seeded deterministic* jitter, so two supervisors never
  thundering-herd in lockstep yet every run of the same sweep sleeps
  the same schedule.
* **Timeouts** — ``REPRO_TASK_TIMEOUT`` (seconds, default off) bounds
  each task's wall clock from dispatch.  Queued-but-unstarted tasks are
  requeued without penalty; a running task that overruns is treated as
  hung, counted, and its pool is abandoned (a truly stuck worker cannot
  be reclaimed through ``concurrent.futures``) and respawned.
* **Respawns** — a broken or abandoned pool is replaced and only the
  incomplete tasks are re-dispatched; results collected before the
  failure are kept (the ``on_result`` callback runs in the parent as
  each task completes, so progress is durable even mid-failure).  A
  respawn charges no attempt to the tasks the pool held: only a task's
  own exception or timeout spends its retry budget.

Failures that survive every retry are collected and raised together as
:class:`TaskFailedError` *after* the remaining tasks complete —
maximum durable progress, then a loud exit.  ``KeyboardInterrupt`` and
``SystemExit`` are never caught.

Fault sites ``worker.crash`` and ``worker.hang`` (see
:mod:`repro.resilience.faults`) are checked at the top of every pool
task, worker-side, so tests can exercise each recovery path
deterministically.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, \
    wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core import flags
from .faults import fire


def default_retries() -> int:
    """Retry budget per task (env ``REPRO_RETRIES``); a malformed value
    falls back to the flag's declared default."""
    try:
        return max(0, int(flags.read("REPRO_RETRIES")))
    except ValueError:
        return int(flags.declared("REPRO_RETRIES").default)


def default_task_timeout() -> Optional[float]:
    """Per-task wall-clock ceiling in seconds (env ``REPRO_TASK_TIMEOUT``,
    unset/non-positive disables timeouts)."""
    raw = flags.read("REPRO_TASK_TIMEOUT")
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


@dataclass
class SupervisedTask:
    """One unit of supervised work.

    ``key`` is the dedupe identity (the runner uses the pair's cache
    key); ``label`` is the human-readable name used in error reports
    and as the fault-site key; ``fn`` must be module-level picklable.
    """

    key: str
    label: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...]


@dataclass
class SupervisorTelemetry:
    """What the supervisor had to do beyond first-attempt successes."""

    retries: int = 0
    timeouts: int = 0
    respawns: int = 0


class TaskTimeoutError(RuntimeError):
    """A supervised task overran ``REPRO_TASK_TIMEOUT``."""


class TaskFailedError(RuntimeError):
    """One or more tasks failed after exhausting their retries."""

    def __init__(self, failures: Dict[str, BaseException]) -> None:
        self.failures = failures
        detail = "; ".join(
            f"{label}: {type(error).__name__}: {error}"
            for label, error in sorted(failures.items()))
        super().__init__(
            f"{len(failures)} task(s) failed after retries: {detail}")


def run_supervised(fn: Callable[..., Any], args: Tuple[Any, ...],
                   label: str) -> Any:
    """Worker-side wrapper around every pool task.

    Checks the process-fatal fault sites before running the payload, so
    injected crashes/hangs happen where real ones do: inside a worker,
    before any result exists.
    """
    value = fire("worker.crash", key=label)
    if value is not None:
        os._exit(max(1, int(value)))
    value = fire("worker.hang", key=label)
    if value is not None:
        time.sleep(value)
    return fn(*args)


class Supervisor:
    """Runs :class:`SupervisedTask` lists with retries, timeouts and
    pool respawns; see the module docstring for the policy."""

    #: How often the pool loop wakes to check deadlines (seconds).
    _POLL = 0.05

    #: Pool respawns allowed per ``run()`` before the supervisor gives
    #: up on the remaining tasks — a task that kills its worker on every
    #: attempt never raises into ``_note_failure``, so without this cap
    #: a crash-looping payload would respawn forever.
    _MAX_RESPAWNS = 8

    def __init__(self, max_workers: int = 1,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 backoff_base: float = 0.02,
                 backoff_cap: float = 2.0,
                 seed: int = 0,
                 on_result: Optional[
                     Callable[[SupervisedTask, Any], None]] = None,
                 telemetry: Optional[SupervisorTelemetry] = None) -> None:
        self.max_workers = max(1, max_workers)
        self.timeout = timeout if timeout is not None \
            else default_task_timeout()
        self.retries = retries if retries is not None else default_retries()
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.seed = seed
        self.on_result = on_result
        self.telemetry = telemetry if telemetry is not None \
            else SupervisorTelemetry()

    # -- Entry points -------------------------------------------------------

    def run(self, tasks: List[SupervisedTask]) -> Dict[str, Any]:
        """Run every task; returns ``{task.key: result}``.

        Duplicate keys are executed once (the duplicate-submission
        guard; the shared result is installed under the one key).
        Dispatches to a process pool when both the task count and
        ``max_workers`` exceed one, else runs serially in-process.
        """
        deduped: List[SupervisedTask] = []
        seen: Set[str] = set()
        for task in tasks:
            if task.key in seen:
                continue
            seen.add(task.key)
            deduped.append(task)
        if not deduped:
            return {}
        if len(deduped) > 1 and self.max_workers > 1:
            return self._run_pool(deduped)
        return self._run_serial(deduped)

    # -- Serial path --------------------------------------------------------

    def _run_serial(self, tasks: List[SupervisedTask]) -> Dict[str, Any]:
        results: Dict[str, Any] = {}
        failures: Dict[str, BaseException] = {}
        for task in tasks:
            attempt = 0
            while True:
                attempt += 1
                try:
                    result = task.fn(*task.args)
                except Exception as error:
                    if attempt > self.retries:
                        # Out of budget: record and move on so the rest
                        # of the sweep still lands durably.
                        failures[task.label] = error
                        break
                    self.telemetry.retries += 1
                    self._sleep_backoff(attempt)
                    continue
                results[task.key] = result
                self._deliver(task, result)
                break
        if failures:
            raise TaskFailedError(failures)
        return results

    # -- Pool path ----------------------------------------------------------

    def _run_pool(self, tasks: List[SupervisedTask]) -> Dict[str, Any]:
        results: Dict[str, Any] = {}
        failures: Dict[str, BaseException] = {}
        todo: Dict[str, SupervisedTask] = {t.key: t for t in tasks}
        attempts: Dict[str, int] = {t.key: 0 for t in tasks}
        round_no = 0
        respawns = 0
        while todo:
            if round_no:
                self._sleep_backoff(round_no)
            round_no += 1
            if self._pool_round(todo, attempts, results, failures):
                respawns += 1
                if respawns > self._MAX_RESPAWNS:
                    for task in todo.values():
                        failures[task.label] = RuntimeError(
                            f"abandoned after {respawns} pool respawns "
                            "(crash-looping worker payload?)")
                    todo.clear()
        if failures:
            raise TaskFailedError(failures)
        return results

    def _pool_round(self, todo: Dict[str, SupervisedTask],
                    attempts: Dict[str, int],
                    results: Dict[str, Any],
                    failures: Dict[str, BaseException]) -> bool:
        """Dispatch every incomplete task on a fresh pool, collecting
        until the batch drains or the pool must be abandoned.  Returns
        True when the pool was abandoned (caller respawns)."""
        batch = list(todo.values())
        pool = ProcessPoolExecutor(max_workers=min(self.max_workers,
                                                   len(batch)))
        abandon = False
        try:
            future_of: Dict[Future[Any], SupervisedTask] = {}
            deadline_of: Dict[Future[Any], Optional[float]] = {}
            for task in batch:
                future = pool.submit(run_supervised, task.fn, task.args,
                                     task.label)
                future_of[future] = task
                deadline_of[future] = (time.monotonic() + self.timeout) \
                    if self.timeout is not None else None
            outstanding: Set[Future[Any]] = set(future_of)
            while outstanding:
                done, outstanding = wait(outstanding, timeout=self._POLL,
                                         return_when=FIRST_COMPLETED)
                for future in done:
                    task = future_of[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        # A worker died mid-task.  Every sibling future
                        # is broken too; abandon the pool and let the
                        # outer loop re-dispatch whatever is incomplete.
                        abandon = True
                        continue
                    except Exception as error:
                        self._note_failure(task, error, attempts, todo,
                                           failures)
                        continue
                    results[task.key] = result
                    todo.pop(task.key, None)
                    self._deliver(task, result)
                if abandon:
                    break
                if self.timeout is not None and outstanding:
                    abandon = self._expire_overruns(
                        outstanding, future_of, deadline_of, attempts,
                        todo, failures)
                    if abandon:
                        break
            if abandon:
                self.telemetry.respawns += 1
        finally:
            # An abandoned pool may hold a hung or dead worker; do not
            # block on it — the leaked process either already exited or
            # finishes its finite sleep and exits on its own.
            pool.shutdown(wait=not abandon, cancel_futures=True)
        return abandon

    def _expire_overruns(self, outstanding: Set[Future[Any]],
                         future_of: Dict[Future[Any], SupervisedTask],
                         deadline_of: Dict[Future[Any], Optional[float]],
                         attempts: Dict[str, int],
                         todo: Dict[str, SupervisedTask],
                         failures: Dict[str, BaseException]) -> bool:
        """Handle tasks past their deadline; True when the pool must go."""
        now = time.monotonic()
        hung = False
        for future in list(outstanding):
            deadline = deadline_of[future]
            if deadline is None or now <= deadline or future.done():
                continue
            task = future_of[future]
            if future.cancel():
                # Never started — it sat in the queue behind slower
                # work.  Requeue it with the rest of the pool.
                outstanding.discard(future)
                hung = True
                continue
            self.telemetry.timeouts += 1
            self._note_failure(
                task,
                TaskTimeoutError(
                    f"task {task.label!r} exceeded {self.timeout}s"),
                attempts, todo, failures)
            outstanding.discard(future)
            hung = True
        return hung

    # -- Shared helpers -----------------------------------------------------

    def _deliver(self, task: SupervisedTask, result: Any) -> None:
        if self.on_result is not None:
            self.on_result(task, result)

    def _note_failure(self, task: SupervisedTask, error: BaseException,
                      attempts: Dict[str, int],
                      todo: Dict[str, SupervisedTask],
                      failures: Dict[str, BaseException]) -> None:
        """Charge the task's own failed attempt: keep it queued while it
        has retry budget, else record the terminal failure.

        Only the task's own exception or timeout is an attempt; a pool
        that breaks under it (another task's worker died) is a respawn,
        bounded by ``_MAX_RESPAWNS``.
        """
        attempts[task.key] += 1
        if attempts[task.key] > self.retries:
            failures[task.label] = error
            todo.pop(task.key, None)
        else:
            self.telemetry.retries += 1

    def _sleep_backoff(self, round_no: int) -> None:
        """Capped exponential backoff with seeded deterministic jitter."""
        delay = min(self.backoff_cap,
                    self.backoff_base * (2.0 ** (round_no - 1)))
        jitter = random.Random(f"{self.seed}:{round_no}").random()
        time.sleep(delay * (0.5 + jitter))
