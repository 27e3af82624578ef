"""Parallel fault-tolerant experiment runner (``repro.runner``).

The public surface every sweep uses:

* :class:`TaskSpec` — picklable description of one experiment, one
  attack-vs-engine cell, or a self-test task.
* :func:`expand_selectors` — CLI selector grammar -> task list.
* :func:`run_tasks` / :class:`RunnerConfig` — task sweeps on the one
  process pool (long-lived workers, a progress watchdog, bounded
  retry and in-process degradation; see :mod:`repro.runner.pool`).
* :func:`derive_seed` — deterministic per-task seeding.
* :func:`resolve_jobs` — the one worker-count rule (explicit flag,
  then environment, then default) shared by every CLI entry point.
* :func:`run_sharded` / :class:`ShardPoolConfig` — one scenario's
  shards as items of the same pool (see :mod:`repro.runner.shardpool`).
* :func:`write_artifacts` — JSON artifacts under ``results/``.
* :class:`ProgressPrinter` and the event dataclasses in
  :mod:`repro.runner.progress`.
"""

from repro.runner.artifacts import canonical_json, sanitize, write_artifacts
from repro.runner.pool import (
    RunnerConfig,
    TaskPool,
    TaskResult,
    resolve_jobs,
    run_tasks,
)
from repro.runner.progress import (
    PoolDegraded,
    ProgressPrinter,
    RunCompleted,
    RunnerEvent,
    RunStarted,
    ShardExchangeResolved,
    ShardPoolDegraded,
    ShardRoundCompleted,
    ShardWorkerRetrying,
    TaskFinished,
    TaskRetrying,
    TaskStarted,
)
from repro.runner.seeds import derive_seed
from repro.runner.select import MATRIX_ENGINES, expand_selectors
from repro.runner.shardpool import ShardPool, ShardPoolConfig, run_sharded
from repro.runner.task import TaskSpec, execute_task

__all__ = [
    "MATRIX_ENGINES",
    "PoolDegraded",
    "ProgressPrinter",
    "RunCompleted",
    "RunnerConfig",
    "RunnerEvent",
    "RunStarted",
    "ShardExchangeResolved",
    "ShardPool",
    "ShardPoolConfig",
    "ShardPoolDegraded",
    "ShardRoundCompleted",
    "ShardWorkerRetrying",
    "TaskFinished",
    "TaskPool",
    "TaskResult",
    "TaskRetrying",
    "TaskStarted",
    "TaskSpec",
    "canonical_json",
    "derive_seed",
    "execute_task",
    "expand_selectors",
    "resolve_jobs",
    "run_sharded",
    "run_tasks",
    "sanitize",
    "write_artifacts",
]
