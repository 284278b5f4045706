"""The worker pool every parallel caller runs on.

The ``--jobs`` configuration fan-out and the service scheduler, whose
tasks are both one :func:`~repro.oraql.parallel.run_session` call, and
the fuzz and chaos campaigns all run their tasks through one
:class:`WorkerPool`, which owns the worker-loss contract:

* a worker dying (``os._exit``, OOM, ``kill -9``) breaks the whole
  :class:`~concurrent.futures.ProcessPoolExecutor`, and every task in
  flight sees the break.  The pool is respawned once per break: the
  respawn counter tells every later observer that it already was;
* an injected :class:`~repro.faults.injector.SessionKilled` models the
  same death inside a healthy pool, so it is requeued without a respawn;
* a lost task is requeued as its next attempt, at most
  :data:`MAX_WORKER_RETRIES` times.  The caller builds each attempt's
  arguments, so a requeued probing session resumes from its journal;
* every loss is recorded in the task's ``worker_errors``, so a task's
  attempt number is always the number of losses recorded; a task lost
  once more than the bound fails with :class:`WorkerLost`.

A pool of ``processes=0`` runs each task in the calling process under
the same contract (only ``SessionKilled`` can happen there).

Workers are forked (the platform default), so a worker entry point that
the host replaced before the first task, such as the benchmark's job
hook around ``repro.service.scheduler._execute_job``, reaches them.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (FIRST_COMPLETED, Future, InvalidStateError,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..faults.injector import SessionKilled

#: how many times a task is requeued after its worker died before it
#: fails with :class:`WorkerLost`
MAX_WORKER_RETRIES = 2

#: a task's arguments for a given attempt number
ArgsFor = Callable[[int], tuple]


class WorkerLost(RuntimeError):
    """A task lost its worker more than :data:`MAX_WORKER_RETRIES`
    times; the message names the task."""


class PoolTask:
    """One task across its attempts.  ``future`` settles with the first
    attempt that keeps its worker, or with :class:`WorkerLost`."""

    def __init__(self, name: str, fn: Callable, args_for: ArgsFor,
                 worker_errors: List[str]):
        self.name = name
        self.fn = fn
        self.args_for = args_for
        #: the attempt running now; the attempts consumed once settled
        self.attempt = 0
        self.worker_errors = worker_errors
        self.future: Future = Future()
        self._inner: Optional[Future] = None
        self.future.add_done_callback(self._cancel_inner)

    def _cancel_inner(self, future: Future) -> None:
        if future.cancelled() and self._inner is not None:
            self._inner.cancel()


def _settle(future: Future, result=None, error=None) -> None:
    """Complete ``future`` unless the caller cancelled it meanwhile."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass


class WorkerPool:
    """``processes`` worker processes (0: the calling process)."""

    def __init__(self, processes: int):
        self.processes = processes
        #: bumped by every respawn; an observer of a break respawns only
        #: if no one did since its attempt was submitted
        self.respawns = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._lock = threading.Lock()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; tasks not yet started are cancelled."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def submit(self, fn: Callable, args_for: ArgsFor, name: str = "task",
               worker_errors: Optional[List[str]] = None) -> PoolTask:
        """Run ``fn(*args_for(attempt))`` from attempt 0, requeueing it
        on worker loss.  Losses are appended to ``worker_errors`` (an
        empty list: a fresh one unless given) as they happen."""
        task = PoolTask(name, fn, args_for,
                        [] if worker_errors is None else worker_errors)
        self._start(task)
        return task

    def run(self, fn: Callable, tasks: Sequence[Tuple[str, ArgsFor]],
            deadline: Optional[float] = None
            ) -> Iterator[Tuple[int, PoolTask]]:
        """Submit ``(name, args_for)`` tasks in order, keeping every
        worker busy, and yield ``(index, task)`` as each one settles.

        Past ``deadline`` (a ``time.monotonic()`` value) nothing more is
        submitted and whatever is still running is abandoned, so fewer
        tasks come back than were given."""
        def in_time() -> bool:
            return deadline is None or time.monotonic() < deadline

        queue = list(enumerate(tasks))[::-1]
        limit = max(1, 2 * self.processes)
        in_flight = {}
        try:
            while queue or in_flight:
                while queue and len(in_flight) < limit and in_time():
                    i, (name, args_for) = queue.pop()
                    task = self.submit(fn, args_for, name)
                    in_flight[task.future] = (i, task)
                timeout = None if deadline is None \
                    else max(0.0, deadline - time.monotonic())
                done, _ = wait(in_flight, timeout=timeout,
                               return_when=FIRST_COMPLETED)
                if not done:
                    return
                for future in done:
                    yield in_flight.pop(future)
        finally:
            for future in in_flight:
                future.cancel()

    # -- the retry loop ----------------------------------------------------
    def _start(self, task: PoolTask) -> None:
        args = task.args_for(task.attempt)
        seen = self.respawns
        if self.processes <= 0:
            inner: Future = Future()
            try:
                inner.set_result(task.fn(*args))
            except Exception as e:
                inner.set_exception(e)
        else:
            with self._lock:
                if self._closed:
                    task.future.cancel()
                    return
                if self._executor is None:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.processes)
                seen = self.respawns
                try:
                    inner = self._executor.submit(task.fn, *args)
                except BrokenProcessPool:
                    inner = None
            if inner is None:
                # the pool broke before anyone respawned it; this
                # attempt never ran, so it is not a loss
                self._respawn(seen)
                self._start(task)
                return
        task._inner = inner
        inner.add_done_callback(
            lambda f: self._finish(task, seen, f))

    def _finish(self, task: PoolTask, seen: int,
                inner: Future) -> None:
        if task.future.done():
            return  # cancelled by the caller
        if inner.cancelled():
            task.future.cancel()
            return
        error = inner.exception()
        if not isinstance(error, (BrokenProcessPool, SessionKilled)):
            _settle(task.future, None if error else inner.result(), error)
            return
        what = f"{type(error).__name__}: {error}"
        task.attempt += 1
        if task.attempt > MAX_WORKER_RETRIES:
            task.worker_errors.append(
                f"worker lost ({what}); retries exhausted")
            _settle(task.future, error=WorkerLost(
                f"{task.name}: worker lost {task.attempt} time(s): {what}"))
            return
        task.worker_errors.append(
            f"worker lost ({what}); requeued as attempt {task.attempt}")
        if isinstance(error, BrokenProcessPool):
            self._respawn(seen)
        try:
            self._start(task)
        except Exception as e:
            # e.g. the respawned pool cannot fork: this callback runs on
            # the executor's thread, so only the future can carry it
            _settle(task.future, error=e)

    def _respawn(self, seen: int) -> None:
        """Replace a broken pool once per break: every task in flight
        observes the break, only the first observer respawns."""
        with self._lock:
            if self.respawns != seen or self._closed:
                return
            self.respawns += 1
            old, self._executor = self._executor, None
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)


def run_seeds(fn: Callable, seeds: Sequence[int], opts, jobs: int,
              time_budget: Optional[float] = None,
              progress: Optional[Callable] = None) -> Tuple[list, bool]:
    """``fn(seed, opts)`` for every seed on up to ``jobs`` workers (in
    the calling process when ``jobs`` is 1) — the fuzz and chaos
    campaigns' loop.

    Returns the results in seed order, and whether ``time_budget``
    (seconds) ran out before every seed was run.  A seed that keeps
    losing its worker raises :class:`WorkerLost` naming it."""
    deadline = time.monotonic() + time_budget if time_budget else None
    processes = 0 if jobs <= 1 \
        else min(jobs, len(seeds), os.cpu_count() or 1)
    tasks = [(f"seed {s}", lambda attempt, s=s: (s, opts)) for s in seeds]
    results = []
    with WorkerPool(processes) as pool:
        for _, task in pool.run(fn, tasks, deadline):
            results.append(task.future.result())
            if progress:
                progress(results[-1])
    results.sort(key=lambda r: r.seed)
    return results, len(results) < len(seeds)
