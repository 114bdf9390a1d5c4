"""Supervised process pool: the execution arm of the service daemon.

A :class:`SupervisedWorkerPool` wraps a ``concurrent.futures``
``ProcessPoolExecutor`` (forked, so workers inherit the installed fault
plan and the heartbeat channel) with the three behaviors a long-running
daemon needs that the raw executor does not have:

* **restart-on-crash** -- a worker that dies mid-job surfaces as
  ``BrokenProcessPool``; the executor is rebuilt for subsequent jobs and
  the crashed job's remaining attempts run *in the parent process* (a
  thread), which a crash-prone environment that kills workers cannot
  touch.  Job execution is deterministic
  (:func:`repro.service.spec.execute_job`), so a recovered job is
  bit-identical to an undisturbed one.
* **per-job deadlines** -- the worker runs under a
  :class:`~repro.util.resilience.Deadline` threaded into the routing
  kernels, and the parent holds a grace-scaled watchdog on top: a worker
  that stops making progress past ``deadline * grace + slack`` is declared
  stuck, its processes are terminated, the pool is rebuilt, and the job is
  retried or failed -- a hung kernel can never wedge the queue.
* **heartbeats** -- workers report job start/finish over a fork-inherited
  queue; :meth:`SupervisedWorkerPool.liveness` exposes per-worker last-seen
  ages for the daemon's status endpoint, and a worker whose heartbeat
  predates the oldest allowed age is reported ``stale`` there long before
  the watchdog fires.

Failures the pool absorbs are reported as structured recovery events
(``pool-failure``, ``worker-stuck``, ``retry``) on the per-job events list
the daemon journals, and as ``service.worker_restarts`` /
``service.retries`` counters in the metrics registry.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import queue as queue_mod
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional

from ..obs import metrics as obs_metrics
from ..util.resilience import ResilienceError, RetryPolicy, record_event
from .spec import execute_job

__all__ = ["JobExecutionError", "SupervisedWorkerPool"]

#: Extra parent-side watchdog seconds on top of the grace-scaled deadline,
#: covering worker spawn + result pickling on a loaded machine.
_WATCHDOG_SLACK_S = 5.0

#: Fork-inherited heartbeat channel (set in the parent before the executor
#: forks, read by every worker).  Module-global on purpose: executor
#: ``initargs`` are pickled, and multiprocessing queues only travel by
#: inheritance.
_HB_QUEUE: Optional[multiprocessing.queues.Queue] = None


def _pool_entry(job_id: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side wrapper: heartbeat start/done around :func:`execute_job`."""
    _heartbeat("start", job_id)
    result = execute_job(payload)
    _heartbeat("done", job_id)
    return result


def _heartbeat(phase: str, job_id: str) -> None:
    hb = _HB_QUEUE
    if hb is None:
        return
    try:
        hb.put_nowait((os.getpid(), phase, job_id, time.time()))
    except Exception:
        # A full or torn-down heartbeat channel must never fail a job;
        # liveness degrades to watchdog-only supervision.
        pass


class JobExecutionError(RuntimeError):
    """A job failed permanently after the pool's bounded recovery.

    ``kind`` classifies the terminal cause: ``worker-crash`` (pool kept
    breaking), ``deadline`` (watchdog fired on every attempt), ``error``
    (the job itself raised).  The breaker counts these per job class.
    """

    def __init__(self, kind: str, message: str, attempts: int) -> None:
        super().__init__(message)
        self.kind = kind
        self.attempts = attempts


class SupervisedWorkerPool:
    """Forked process pool with heartbeats, deadlines and bounded retries."""

    def __init__(
        self,
        workers: int = 2,
        deadline_s: Optional[float] = 60.0,
        retry: Optional[RetryPolicy] = None,
        grace: float = 1.5,
    ) -> None:
        """``deadline_s`` is the default per-job budget (``None`` = none)."""
        if workers < 1:
            raise ValueError("pool needs at least one worker")
        self.workers = workers
        self.deadline_s = deadline_s
        self.retry = retry or RetryPolicy(attempts=2, backoff_s=0.05)
        self.grace = grace
        self.restarts = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._liveness: Dict[int, Dict[str, Any]] = {}
        self._closed = False
        # One pool failure breaks *every* in-flight job's future at once, so
        # several jobs can reach the parent fallback together.  They must
        # not run together: execute_job leans on process-global warm caches
        # (front-end memo, search views) that are not thread-safe, and a
        # concurrent fallback would break the bit-identity contract.
        self._parent_lock = asyncio.Lock()

    # -- executor lifecycle --------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        global _HB_QUEUE
        if self._executor is None:
            ctx = multiprocessing.get_context("fork")
            if _HB_QUEUE is None:
                _HB_QUEUE = ctx.Queue()
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx
            )
        return self._executor

    def _teardown_executor(self, kill: bool) -> None:
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        if kill:
            # A stuck worker ignores shutdown(); terminate the processes so
            # the orphaned computation cannot outlive its job.
            for proc in list(getattr(executor, "_processes", {}).values()):
                try:
                    proc.terminate()
                except Exception:
                    pass
        executor.shutdown(wait=not kill, cancel_futures=True)

    def _restart(self, kill: bool = False) -> None:
        self._teardown_executor(kill=kill)
        self.restarts += 1
        obs_metrics.add("service.worker_restarts")
        self._ensure_executor()

    # -- heartbeats ----------------------------------------------------------

    def _drain_heartbeats(self) -> None:
        hb = _HB_QUEUE
        if hb is None:
            return
        while True:
            try:
                pid, phase, job_id, ts = hb.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return
            self._liveness[pid] = {"phase": phase, "job": job_id, "ts": ts}

    def liveness(self, stale_after_s: Optional[float] = None) -> Dict[str, Any]:
        """Per-worker last-heartbeat view for the status endpoint."""
        self._drain_heartbeats()
        now = time.time()
        stale_after_s = stale_after_s if stale_after_s is not None else (
            (self.deadline_s or 60.0) * self.grace
        )
        workers = {}
        for pid, last in self._liveness.items():
            age = now - last["ts"]
            workers[str(pid)] = {
                "phase": last["phase"],
                "job": last["job"],
                "age_s": round(age, 3),
                "stale": last["phase"] == "start" and age > stale_after_s,
            }
        return {"workers": workers, "restarts": self.restarts}

    # -- job execution -------------------------------------------------------

    async def run_job(
        self,
        job_id: str,
        payload: Dict[str, Any],
        deadline_s: Optional[float] = None,
        events: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Execute one job with supervision; returns the worker's result dict.

        Raises :class:`JobExecutionError` when the bounded recovery budget
        (``retry.attempts`` total tries) is exhausted or the job fails
        permanently.  Worker crashes and watchdog kills consume attempts
        exactly like job-level retryable errors, so a poisonous job cannot
        crash-loop the pool forever.
        """
        if self._closed:
            raise JobExecutionError("shutdown", "pool is shut down", 0)
        loop = asyncio.get_running_loop()
        budget = deadline_s if deadline_s is not None else self.deadline_s
        watchdog = (
            None if budget is None else budget * self.grace + _WATCHDOG_SLACK_S
        )
        backoffs = self.retry.backoffs()
        last_error: Optional[BaseException] = None
        kind = "error"
        in_parent = False
        for attempt in range(1, self.retry.attempts + 1):
            try:
                if in_parent:
                    # Serial fallback: after a worker crash the job finishes
                    # in the parent, immune to whatever keeps killing fresh
                    # workers — and strictly one job at a time (see
                    # _parent_lock).  The watchdog times the execution, not
                    # the wait for the lock.
                    async with self._parent_lock:
                        result = await asyncio.wait_for(
                            loop.run_in_executor(None, execute_job, payload),
                            timeout=watchdog,
                        )
                else:
                    executor = self._ensure_executor()
                    future = loop.run_in_executor(
                        executor, _pool_entry, job_id, payload
                    )
                    result = await asyncio.wait_for(future, timeout=watchdog)
                self._drain_heartbeats()
                return result
            except BrokenProcessPool as exc:
                # Hard worker death (os._exit, OOM-kill, segfault).
                kind, last_error = "worker-crash", exc
                record_event(
                    events, "pool-failure", site="service.exec", job=job_id,
                    attempt=attempt, error=f"{type(exc).__name__}: {exc}",
                )
                self._restart(kill=False)
                in_parent = True
            except asyncio.TimeoutError as exc:
                # The watchdog fired: the worker is stuck past its budget.
                kind, last_error = "deadline", exc
                record_event(
                    events, "worker-stuck", site="service.exec", job=job_id,
                    attempt=attempt, watchdog_s=watchdog,
                )
                self._restart(kill=True)
            except (ResilienceError, OSError) as exc:
                # Retryable job-level failure (injected error, transient IO).
                kind, last_error = "error", exc
                record_event(
                    events, "retry", site="service.exec", job=job_id,
                    attempt=attempt, error=type(exc).__name__,
                )
            except Exception as exc:
                # Permanent job failure (unroutable design, bad payload):
                # retrying a deterministic job cannot change the outcome.
                raise JobExecutionError(
                    "error", f"{type(exc).__name__}: {exc}", attempt
                ) from exc
            if attempt < self.retry.attempts:
                obs_metrics.add("service.retries")
                delay = next(backoffs)
                if delay > 0:
                    await asyncio.sleep(delay)
        raise JobExecutionError(
            kind,
            f"job failed after {self.retry.attempts} attempt(s): "
            f"{type(last_error).__name__}: {last_error}",
            self.retry.attempts,
        ) from last_error

    def shutdown(self) -> None:
        """Terminate the executor; the pool cannot be reused afterwards."""
        self._closed = True
        self._teardown_executor(kill=True)
