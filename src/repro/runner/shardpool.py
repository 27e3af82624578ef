"""The shards of one sharded scenario, run on the process pool.

Where :class:`~repro.runner.pool.TaskPool` parallelizes *across*
tasks, :class:`ShardPool` parallelizes *inside* one: the
``spec.shards`` NUMA-style nodes of a scenario (see
:mod:`repro.harness.shardfleet`) are the items of the same
:class:`~repro.runner.pool.Supervisor`, handed one at a time to
``workers`` long-lived processes that stream per-round beacons back.
Watchdog, retry and worker replacement are the supervisor's; two
things are shard-specific:

* **Finished shards are kept.**  A shard run is a pure function of
  ``(spec, shard)``, so the pool raises only after every other shard
  is done, and the degraded path reruns just the shards that kept
  failing (or never ran), in-process with ``run_one_shard`` — never
  the injected ``shard_fn``, which may be what failed.
* **One fold.**  Whatever executed them, results are recombined by
  :func:`~repro.harness.shardfleet.combine_shard_results`, a pure fold
  in ``(shard, pfn)`` order — so ``--shards 1``, ``--shards 4``, a
  retried worker and the degraded path all produce byte-identical
  artifacts.  :func:`run_sharded` is the one entry point every caller
  (fleet tasks, the CLI, the benchmarks) goes through.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.runner.pool import Supervisor, _Item, _PoolBroken
from repro.runner.progress import (
    ShardExchangeResolved,
    ShardPoolDegraded,
    ShardRoundCompleted,
    ShardWorkerRetrying,
)


@dataclass(frozen=True)
class ShardPoolConfig:
    """Execution policy for one sharded scenario."""

    workers: int = 1
    #: Progress watchdog: max silence per shard before it is killed.
    timeout_s: float | None = None
    #: Failed shards are retried this many times on the pool.
    max_retries: int = 1
    retry_backoff_s: float = 0.25
    #: multiprocessing start method; ``None`` prefers fork, then spawn.
    start_method: str | None = None
    #: Skip the pool entirely and run in-process.
    force_serial: bool = False


def _beacon(driver, table) -> tuple:
    """One round's progress: the :class:`ShardRoundCompleted` fields
    after ``scenario``."""
    return (driver.shard, table.round_no, len(table.entries),
            driver.booted, driver.booted - driver.retired)


def _run_shard(spec, shard_fn, shard: int, progress):
    """Worker side of a shard item: run it, streaming round beacons.

    ``shard_fn`` defaults to the real shard executor; the scaling
    benchmark injects a service-time-calibrated wrapper through it.
    """
    from repro.harness.shardfleet import run_one_shard

    return (shard_fn or run_one_shard)(
        spec, shard,
        on_round=lambda driver, table: progress(_beacon(driver, table)),
    )


class ShardPool(Supervisor):
    """The supervisor over one scenario's shards."""

    def __init__(self, spec, *, config: ShardPoolConfig | None = None,
                 on_event=None, shard_fn=None) -> None:
        config = config or ShardPoolConfig()
        super().__init__(spec.shards, jobs=min(config.workers, spec.shards),
                         config=config,
                         run_item=functools.partial(_run_shard, spec,
                                                    shard_fn),
                         on_event=on_event)
        self.spec = spec
        self.results: dict[int, object] = {}
        #: shard -> its last failure, for shards out of retries.
        self.failed: dict[int, str] = {}

    def run(self) -> list:
        """All shards' results, by shard; raises once any shard has
        spent its retries (after the others finish) or no pool can be
        built, so that :func:`run_sharded` can degrade."""
        self._run_pool()
        return self._ordered()

    def run_inprocess(self) -> list:
        """The degraded path: the unfinished shards in this process."""
        self.failed.clear()
        self._pending = [_Item(shard) for shard in range(self.spec.shards)
                         if shard not in self.results]
        self._run_inprocess()
        return self._ordered()

    def on_round(self, driver, table) -> None:
        self._progress(None, _beacon(driver, table))

    def _ordered(self) -> list:
        """Results by shard; raises if any shard ran out of retries."""
        if self.failed:
            shard, failure = min(self.failed.items())
            raise _PoolBroken(f"shards {sorted(self.failed)} kept failing "
                              f"(shard {shard} {failure})")
        return [self.results[shard] for shard in sorted(self.results)]

    # -- supervisor hooks -----------------------------------------------
    def _message(self, item: _Item) -> int:
        return item.index

    def _execute(self, item: _Item):
        from repro.harness.shardfleet import run_one_shard

        return run_one_shard(self.spec, item.index, on_round=self.on_round)

    def _progress(self, item, message) -> None:
        self._emit(ShardRoundCompleted(self.spec.name, *message))

    def _succeeded(self, item: _Item, result, mode: str) -> None:
        self.results[item.index] = result

    def _retrying(self, item: _Item, outcome: str, detail: str,
                  delay: float) -> None:
        self._emit(ShardWorkerRetrying(
            scenario=self.spec.name, shards=(item.index,), reason=outcome,
            attempt=item.attempt, detail=detail,
        ))

    def _gave_up(self, item: _Item, outcome: str, detail: str,
                 mode: str) -> None:
        self.failed[item.index] = self._history[item.index][-1]


def run_sharded(spec, *, config: ShardPoolConfig | None = None,
                on_event=None, shard_fn=None):
    """Run one scenario across its shards; the unified entry point.

    ``spec.shards == 1`` and single-worker/forced-serial configurations
    take the in-process reference executor; everything else goes
    through :class:`ShardPool`, degrading to in-process runs of the
    unfinished shards.  The returned
    :class:`~repro.harness.fleet.FleetResult` is byte-identical across
    all of these paths.
    """
    from repro.harness.shardfleet import (
        combine_shard_results,
        run_sharded_serial,
    )

    config = config or ShardPoolConfig()
    pool = ShardPool(spec, config=config, on_event=on_event,
                     shard_fn=shard_fn)

    def on_exchange(outcome) -> None:
        pool.on_event(ShardExchangeResolved(
            scenario=spec.name, round_no=outcome.round_no,
            shards=spec.shards, exchanged_cids=outcome.exchanged_cids,
            intents_applied=outcome.applied,
            stale_dropped=outcome.stale_entries_dropped,
        ))

    if spec.shards == 1 or config.workers <= 1 or config.force_serial:
        return run_sharded_serial(spec, on_round=pool.on_round,
                                  on_exchange=on_exchange)
    try:
        results = pool.run()
    except _PoolBroken as exc:
        pool.on_event(ShardPoolDegraded(scenario=spec.name, reason=str(exc)))
        results = pool.run_inprocess()
    return combine_shard_results(spec, results, on_exchange=on_exchange)
