"""One fault-tolerant process pool for every parallel run.

:class:`Supervisor` starts up to ``jobs`` long-lived worker processes
and hands each one item at a time over a duplex pipe.  It runs task
sweeps (:class:`TaskPool`, items are :func:`execute_task` calls) and
the shards of one scenario (:class:`~repro.runner.shardpool.ShardPool`,
items are shard runs).  The parent supervises:

* **Progress watchdog** — an item fails as ``timeout`` once its worker
  has been silent for ``timeout_s``.  Task workers send nothing until
  they finish, so for tasks this is a per-attempt deadline; shard
  workers stream round beacons, each of which resets the clock.
* **Bounded retry with backoff** — crashed (bad exit code, no reply),
  timed-out and erroring items are requeued up to ``max_retries``
  times, attempt ``n`` waiting ``retry_backoff_s * 2**n``.  A dead or
  killed worker is replaced by a fresh one.
* **Graceful degradation** — if worker processes cannot be created at
  all (sandboxed environments, exhausted pids, a daemonic parent), the
  unfinished items run in-process with what is left of their retry
  budget, and the run still completes.

Determinism: an item's result is a pure function of the item (a
task's payload of ``(spec, seed)``, with seeds derived from
``(root_seed, task_id)`` alone), so results are byte-identical for any
``jobs`` value, any worker assignment and any retry history.  Results
are returned in submission order, never completion order.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from contextlib import suppress
from dataclasses import dataclass
from multiprocessing.connection import wait

from repro.runner.progress import (
    PoolDegraded,
    RunCompleted,
    RunStarted,
    TaskFinished,
    TaskRetrying,
    TaskStarted,
)
from repro.annotations import worker_entry
from repro.runner.seeds import derive_seed
from repro.runner.task import TaskSpec, execute_task


@dataclass(frozen=True)
class RunnerConfig:
    """Execution policy for one sweep."""

    jobs: int = 1
    #: Per-attempt wall-clock budget; ``None`` disables the watchdog.
    timeout_s: float | None = None
    #: Failed attempts are retried this many times (attempts = retries+1).
    max_retries: int = 2
    #: Base backoff; attempt ``n`` waits ``retry_backoff_s * 2**n``.
    retry_backoff_s: float = 0.25
    #: multiprocessing start method; ``None`` prefers fork, then spawn.
    start_method: str | None = None
    #: Skip the pool entirely and run in-process (also the degraded mode).
    force_serial: bool = False
    #: Worker processes per *sharded scenario* (``spec.shards > 1``
    #: fleet tasks; see repro.runner.shardpool).  Execution policy
    #: only — artifacts are byte-identical for any value.
    shard_workers: int = 1


def resolve_jobs(explicit: int | None = None, *,
                 env_var: str = "REPRO_JOBS",
                 env: dict | None = None,
                 default: int | None = 1) -> int:
    """One rule for every worker count (``--jobs``, ``--shards``).

    Priority: the explicit CLI value, then the environment variable,
    then ``default``.  A value of ``0`` from any source — or a
    ``default`` of ``None`` — resolves to the host cpu count.  Raises
    ``ValueError`` on malformed or negative inputs, so every entry
    point rejects bad worker counts identically instead of re-deriving
    its own rule.
    """
    value = explicit
    source = "worker count"
    if value is None:
        raw = (os.environ if env is None else env).get(env_var)
        if raw is not None:
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(
                    f"{env_var} must be an integer, got {raw!r}"
                ) from None
            source = env_var
    if value is None:
        value = 0 if default is None else default
    if value == 0:
        value = os.cpu_count() or 1
    if value < 1:
        raise ValueError(f"{source} must be >= 1 (got {value})")
    return value


@dataclass
class TaskResult:
    """Outcome of one task after all attempts."""

    spec: TaskSpec
    seed: int
    status: str                  #: "ok" | "error" | "timeout" | "crashed"
    attempts: int
    duration_s: float
    payload: dict | None = None
    error: str | None = None
    mode: str = "pool"           #: "pool" | "serial"

    @property
    def task_id(self) -> str:
        return self.spec.task_id

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def checks_pass(self) -> bool | None:
        if self.payload is None:
            return False if not self.ok else None
        return self.payload.get("checks_pass")


def _failure_detail(exc: BaseException) -> str:
    """One failure report for pooled and in-process items alike.

    Structured checker errors (FrameSan, simlint) carry a one-line
    ``diagnostic`` with frame provenance; lead with it so the
    supervisor can surface it without parsing the traceback.
    """
    detail = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
    diagnostic = getattr(exc, "diagnostic", None)
    return f"{diagnostic}\n{detail}" if diagnostic else detail


@worker_entry
def _worker_main(conn, run_item) -> None:
    """Child entry point: run items from the parent until it sends None.

    ``run_item(item, progress)`` may call ``progress(message)`` to tell
    the parent it is alive (each message resets the item's watchdog);
    its return value is the item's result.
    """

    def progress(message) -> None:
        conn.send(("progress", message))

    try:
        while (item := conn.recv()) is not None:
            try:
                result = run_item(item, progress)
            except Exception as exc:  # noqa: BLE001 - report, parent decides
                conn.send(("error", _failure_detail(exc)))
                continue
            conn.send(("ok", result))
    except (EOFError, OSError):
        pass  # the parent is gone
    finally:
        conn.close()


def _run_task(item: tuple, progress) -> dict:
    """Worker side of a task item (tasks report no progress)."""
    spec, seed, attempt, shard_workers = item
    return execute_task(spec, seed, attempt=attempt,
                        shard_workers=shard_workers)


#: Markers of structured checker diagnostics (see repro.check): the one
#: line worth surfacing verbatim when an attempt's full detail is a
#: multi-page traceback.
_DIAGNOSTIC_MARKERS = ("[FrameSan:", "[simlint]")


def extract_diagnostic(detail: str | None) -> str | None:
    """Return the last checker diagnostic line in a failure detail."""
    if not detail:
        return None
    found = None
    for line in detail.splitlines():
        if any(marker in line for marker in _DIAGNOSTIC_MARKERS):
            found = line.strip()
    return found


@dataclass
class _Item:
    index: int
    attempt: int = 0
    ready_at: float = 0.0


@dataclass
class _Worker:
    process: object
    conn: object
    item: _Item | None = None
    last_heard: float = 0.0


class _PoolBroken(Exception):
    """Worker processes cannot be created, or shards kept failing."""


class Supervisor:
    """Long-lived workers over ``count`` indexed items (module docstring).

    ``config`` supplies ``timeout_s``, ``max_retries``,
    ``retry_backoff_s`` and ``start_method``; ``run_item`` is the
    worker-side callable, fixed per worker at spawn so it never has to
    be pickled per item.  Subclasses say what an item is through the
    hooks below.
    """

    def __init__(self, count: int, *, jobs: int, config, run_item,
                 on_event=None) -> None:
        self.jobs = max(1, jobs)
        self.config = config
        self.run_item = run_item
        self.on_event = on_event or (lambda event: None)
        self._pending = [_Item(index) for index in range(count)]
        #: Per-item failure history ("attempt N: outcome: first line").
        self._history: dict[int, list[str]] = {}

    # -- hooks ----------------------------------------------------------
    def _message(self, item: _Item):
        """What the worker's ``run_item`` receives for ``item``."""
        raise NotImplementedError

    def _execute(self, item: _Item):
        """Run ``item`` in this process (the degraded mode)."""
        raise NotImplementedError

    def _started(self, item: _Item) -> None:
        pass

    def _progress(self, item: _Item, message) -> None:
        pass

    def _succeeded(self, item: _Item, result, mode: str) -> None:
        raise NotImplementedError

    def _retrying(self, item: _Item, outcome: str, detail: str,
                  delay: float) -> None:
        pass

    def _gave_up(self, item: _Item, outcome: str, detail: str,
                 mode: str) -> None:
        raise NotImplementedError

    # -- scheduling -----------------------------------------------------
    def _emit(self, event) -> None:
        self.on_event(event)

    def _next_due(self, now: float) -> _Item | None:
        due = [item for item in self._pending if item.ready_at <= now]
        return min(due, key=lambda item: item.index, default=None)

    def _failed(self, item: _Item, outcome: str, detail: str,
                mode: str) -> None:
        """The one retry rule: requeue with backoff or give up."""
        summary = (detail or outcome).strip()
        first_line = summary.splitlines()[0] if summary else outcome
        self._history.setdefault(item.index, []).append(
            f"attempt {item.attempt + 1}: {outcome}: {first_line}"
        )
        if item.attempt >= self.config.max_retries:
            self._gave_up(item, outcome, detail, mode)
            return
        delay = self.config.retry_backoff_s * (2 ** item.attempt)
        self._retrying(item, outcome, detail, delay)
        self._pending.append(_Item(item.index, item.attempt + 1,
                                   time.monotonic() + delay))

    # -- pool mode ------------------------------------------------------
    def _spawn(self, ctx) -> _Worker:
        """Start one long-lived worker; raises on pool-level failure."""
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.run_item),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn)

    @staticmethod
    def _kill(worker: _Worker) -> None:
        """Stop a worker: an idle one is asked to exit, a busy one killed."""
        if worker.item is None:
            with suppress(Exception):
                worker.conn.send(None)
                worker.process.join(timeout=1)
        with suppress(Exception):
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=1)
        with suppress(Exception):
            worker.conn.close()

    def _run_pool(self) -> None:
        """Run every pending item on workers; raises :class:`_PoolBroken`
        when no worker can be started.  Items still in flight then go
        back to the pending list at the attempt they were on."""
        try:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                self.config.start_method
                or ("fork" if "fork" in methods else "spawn")
            )
        except Exception as exc:  # unknown start method, broken platform
            raise _PoolBroken(f"no multiprocessing context: {exc}") from exc
        workers: list[_Worker] = []
        try:
            while self._pending or any(w.item is not None for w in workers):
                self._dispatch(ctx, workers)
                wait([w.conn for w in workers]
                     + [w.process.sentinel for w in workers], timeout=0.01)
                for worker in list(workers):
                    if not self._poll(worker):
                        workers.remove(worker)
                        self._kill(worker)
        finally:
            for worker in workers:
                if worker.item is not None:
                    self._pending.append(worker.item)
                self._kill(worker)

    def _dispatch(self, ctx, workers: list[_Worker]) -> None:
        """Hand due items, lowest index first, to idle or fresh workers."""
        now = time.monotonic()
        while (item := self._next_due(now)) is not None:
            worker = next((w for w in workers if w.item is None), None)
            if worker is None:
                if len(workers) >= self.jobs:
                    return
                try:
                    worker = self._spawn(ctx)
                except Exception as exc:
                    raise _PoolBroken(f"cannot start worker: {exc}") from exc
                workers.append(worker)
            self._pending.remove(item)
            self._started(item)
            worker.item, worker.last_heard = item, now
            with suppress(OSError):  # a dead worker shows in the next poll
                worker.conn.send(self._message(item))

    def _poll(self, worker: _Worker) -> bool:
        """Pump one worker's pipe and watchdog; False once it must go."""
        item = worker.item
        while worker.conn.poll():
            try:
                kind, body = worker.conn.recv()
            except (EOFError, OSError):
                return self._lost(worker, "crashed",
                                  "worker pipe closed mid-reply")
            worker.last_heard = time.monotonic()
            if kind == "progress":
                self._progress(item, body)
                continue
            worker.item = None
            if kind == "ok":
                self._succeeded(item, body, "pool")
            else:
                self._failed(item, "error", body, "pool")
            return True
        if not worker.process.is_alive():
            return self._lost(worker, "crashed",
                              f"exit code {worker.process.exitcode}")
        timeout = self.config.timeout_s
        if (item is not None and timeout is not None
                and time.monotonic() - worker.last_heard > timeout):
            return self._lost(worker, "timeout",
                              f"no message for {timeout}s")
        return True

    def _lost(self, worker: _Worker, outcome: str, detail: str) -> bool:
        """A worker that must go: its item, if any, failed."""
        if worker.item is not None:
            self._failed(worker.item, outcome, detail, "pool")
        return False

    # -- in-process (forced or degraded) mode ---------------------------
    def _run_inprocess(self) -> None:
        """The pending items in this process: no crash isolation and no
        watchdog, but the same retry rule and identical results."""
        while self._pending:
            now = time.monotonic()
            item = self._next_due(now)
            if item is None:
                time.sleep(max(0.0, min(p.ready_at for p in self._pending)
                               - now))
                continue
            self._pending.remove(item)
            self._started(item)
            try:
                result = self._execute(item)
            except Exception as exc:
                self._failed(item, "error", _failure_detail(exc), "serial")
                continue
            self._succeeded(item, result, "serial")


class TaskPool(Supervisor):
    """The supervisor over one sweep's :func:`execute_task` items."""

    def __init__(self, tasks, *, root_seed: int = 1017,
                 config: RunnerConfig | None = None, on_event=None) -> None:
        self.tasks: list[TaskSpec] = list(tasks)
        config = config or RunnerConfig()
        super().__init__(len(self.tasks), jobs=config.jobs, config=config,
                         run_item=_run_task, on_event=on_event)
        self.root_seed = root_seed
        self.seeds = [
            task.seed if task.seed is not None
            else derive_seed(root_seed, task.task_id)
            for task in self.tasks
        ]
        self._results: list[TaskResult | None] = [None] * len(self.tasks)
        self._first_started: dict[int, float] = {}

    # -- public API -----------------------------------------------------
    def run(self) -> list[TaskResult]:
        started = time.monotonic()
        self._emit(RunStarted(total=len(self.tasks), jobs=self.config.jobs,
                              root_seed=self.root_seed))
        if not self.config.force_serial:
            try:
                self._run_pool()
            except _PoolBroken as exc:
                self._emit(PoolDegraded(reason=str(exc)))
        self._run_inprocess()
        results = [result for result in self._results if result is not None]
        ok = sum(1 for result in results if result.ok)
        self._emit(RunCompleted(
            total=len(results), ok=ok, failed=len(results) - ok,
            duration_s=time.monotonic() - started,
        ))
        return results

    # -- supervisor hooks -----------------------------------------------
    def _message(self, item: _Item) -> tuple:
        return (self.tasks[item.index], self.seeds[item.index],
                item.attempt, self.config.shard_workers)

    def _execute(self, item: _Item) -> dict:
        return execute_task(self.tasks[item.index], self.seeds[item.index],
                            attempt=item.attempt,
                            shard_workers=self.config.shard_workers)

    def _started(self, item: _Item) -> None:
        self._first_started.setdefault(item.index, time.monotonic())
        self._emit(TaskStarted(
            task_id=self.tasks[item.index].task_id, index=item.index,
            total=len(self.tasks), attempt=item.attempt,
        ))

    def _succeeded(self, item: _Item, result, mode: str) -> None:
        self._finish(item, "ok", payload=result, mode=mode)

    def _retrying(self, item: _Item, outcome: str, detail: str,
                  delay: float) -> None:
        self._emit(TaskRetrying(
            task_id=self.tasks[item.index].task_id, attempt=item.attempt,
            reason=outcome, delay_s=delay, detail=detail,
        ))

    def _gave_up(self, item: _Item, outcome: str, detail: str,
                 mode: str) -> None:
        self._finish(item, outcome, mode=mode,
                     error=self._exhausted_error(item.index, outcome, detail))

    # -- results --------------------------------------------------------
    def _finish(self, item: _Item, status: str, *, mode: str,
                payload=None, error=None) -> None:
        index = item.index
        duration = time.monotonic() - self._first_started[index]
        result = TaskResult(
            spec=self.tasks[index], seed=self.seeds[index], status=status,
            attempts=item.attempt + 1, duration_s=duration, payload=payload,
            error=error, mode=mode,
        )
        self._results[index] = result
        self._emit(TaskFinished(
            task_id=result.task_id, index=index, total=len(self.tasks),
            status=status, attempts=result.attempts, duration_s=duration,
            checks_pass=result.checks_pass,
        ))

    def _exhausted_error(self, index: int, outcome: str, detail: str) -> str:
        """Final error for a task that ran out of retries.

        Leads with the task id and the per-attempt history, then the
        last checker diagnostic (FrameSan/simlint) if one is buried in
        the traceback, then the full detail of the final attempt.
        """
        history = self._history.get(index, [])
        lines = [
            f"task '{self.tasks[index].task_id}' (seed {self.seeds[index]}) "
            f"gave up: {outcome} after {len(history)} attempt(s)"
        ]
        lines += [f"  {entry}" for entry in history]
        diagnostic = extract_diagnostic(detail)
        if diagnostic:
            lines.append(f"  last checker diagnostic: {diagnostic}")
        if detail:
            lines.append(detail)
        return "\n".join(lines)


def run_tasks(tasks, *, root_seed: int = 1017,
              config: RunnerConfig | None = None,
              on_event=None) -> list[TaskResult]:
    """Run ``tasks`` under ``config``; results in submission order."""
    return TaskPool(tasks, root_seed=root_seed, config=config,
                    on_event=on_event).run()
