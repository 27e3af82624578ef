"""Sharded execution of one fleet scenario.

A :class:`~repro.harness.spec.ScenarioSpec` with ``shards > 1``
describes a NUMA-style machine: ``shards`` independent nodes of
``frames // shards`` frames each, the VM plan dealt round-robin across
them, stitched together by the per-round content-id exchange of
:mod:`repro.mem.shard`.  This module runs one node
(:class:`ShardFleetDriver` / :func:`run_one_shard`), and recombines the
per-shard results into one global :class:`~repro.harness.fleet
.FleetResult` (:func:`combine_shard_results`).

Determinism: a shard run is a pure function of ``(spec, shard)`` — its
plan slice, machine seed, and every simulated charge derive from the
spec alone — and the recombination is a pure, ``(shard, pfn)``-ordered
fold over the shard results.  Any execution (one process, N workers,
a crashed-and-retried worker) therefore produces byte-identical
samples, totals and exchange telemetry.  The parallel entry point,
:func:`repro.runner.shardpool.run_sharded`, relies on exactly that
contract: it runs shards as items of the runner's process pool, keeps
every finished shard across worker failures, and reruns only the
unfinished ones.

``shards == 1`` is, by construction, the plain serial
:class:`~repro.harness.fleet.FleetDriver` — same machine, same plan,
same windows, no exchange accounts — so enabling the topology knob
never perturbs existing scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.fleet import FleetDriver, FleetResult, FleetSample, generate_plan
from repro.harness.scenario import Scenario
from repro.harness.spec import ScenarioSpec
from repro.mem.shard import (
    EXCHANGE_ENTRY_NS,
    RemoteShareLedger,
    ShardContentTable,
    ShardExchangeError,
    ShardMap,
)

#: Daemon account the exchange's simulated service is booked to.
EXCHANGE_DAEMON = "shardx"


class ShardFleetDriver(FleetDriver):
    """One shard's sub-simulation: an independent node running its
    round-robin slice of the global plan.

    The node's machine has ``frames // shards`` frames, a residency
    window of :attr:`ScenarioSpec.shard_max_resident`, and its own
    derived machine seed.  Per-VM seeds ride in the plan entries, so a
    VM behaves identically wherever it lands.  Every sample boundary
    doubles as an exchange round: the engine's exportable digests are
    canonicalized into a :class:`ShardContentTable` and the
    interconnect service for shipping it is booked to the ``shardx``
    daemon account off the critical path.
    """

    def __init__(self, spec: ScenarioSpec, shard: int, on_round=None) -> None:
        shard_map = ShardMap(shards=spec.shards, frames=spec.frames)
        if not 0 <= shard < spec.shards:
            raise ValueError(f"shard {shard} outside [0, {spec.shards})")
        self.shard = shard
        self.shard_map = shard_map
        self.on_round = on_round
        self.tables: list[ShardContentTable] = []
        plan = [entry for entry in generate_plan(spec)
                if shard_map.shard_of_vm(entry.index) == shard]
        scenario = Scenario(
            spec.system,
            frames=shard_map.frames_per_shard,
            seed=spec.derived_seed(f"shard{shard}:machine"),
        )
        super().__init__(spec, scenario=scenario, plan=plan,
                         max_resident=spec.shard_max_resident)

    def _sample(self) -> None:
        super()._sample()
        engine = self.scenario.engine
        kernel = self.scenario.kernel
        rows = engine.shard_export() if engine is not None else []
        table = ShardContentTable.build(
            shard=self.shard, round_no=len(self.tables),
            generation=kernel.clock.now, rows=rows,
        )
        # Shipping the table is interconnect service, not node stall:
        # booked after the sample it ships, visible from the next one.
        kernel.charge_service(EXCHANGE_DAEMON,
                              EXCHANGE_ENTRY_NS * len(table.entries))
        self.tables.append(table)
        if self.on_round is not None:
            self.on_round(self, table)


@dataclass
class ShardRunResult:
    """Everything one shard contributes to the recombination."""

    shard: int
    samples: list[FleetSample]
    totals: dict
    tables: list[ShardContentTable]
    #: FrameSan ledger-audit findings for this node (empty = clean;
    #: only populated when the run is sanitized).
    audit: list[str] = field(default_factory=list)


def run_one_shard(spec: ScenarioSpec, shard: int,
                  on_round=None) -> ShardRunResult:
    """Run one node to completion; pure in ``(spec, shard)``."""
    driver = ShardFleetDriver(spec, shard, on_round=on_round)
    result = driver.run()
    kernel = driver.scenario.kernel
    audit: list[str] = []
    if kernel.sanitizer is not None:
        audit = list(kernel.sanitizer.audit(driver.scenario.engine))
    return ShardRunResult(shard=shard, samples=list(result.samples),
                          totals=dict(result.totals),
                          tables=list(driver.tables), audit=audit)


# ---------------------------------------------------------------------------
# Recombination
# ---------------------------------------------------------------------------
def _round_tables(results: list[ShardRunResult],
                  round_no: int) -> list[ShardContentTable]:
    """The tables on the fabric at round ``round_no``.

    A node that finished early keeps advertising its final table — its
    content is still resident and shareable — so late rounds of
    long-running shards can still merge against it.
    """
    tables = []
    for result in results:
        if not result.tables:
            continue
        index = min(round_no, len(result.tables) - 1)
        tables.append(result.tables[index])
    return tables


def _combined_sample(results: list[ShardRunResult],
                     round_no: int) -> FleetSample:
    picked = []
    for result in results:
        index = min(round_no, len(result.samples) - 1)
        picked.append(result.samples[index])
    total = {
        name: sum(getattr(sample, name) for sample in picked)
        for name in (
            "booted", "retired", "resident", "frames_in_use",
            "saved_frames", "pages_shared", "pages_sharing", "probes",
            "probe_hits", "pages_scanned", "scan_ns", "cow_faults",
            "coa_faults",
        )
    }
    return FleetSample(t_ns=max(s.t_ns for s in picked), **total)


_SUMMED_TOTALS = (
    "booted_vms", "retired_vms", "booted_pages", "peak_resident_vms",
    "peak_frames_in_use", "final_frames_in_use", "final_saved_frames",
    "peak_saved_frames", "probes", "probe_hits", "cow_faults",
    "coa_faults", "merges", "fake_merges", "pages_scanned",
)


def combine_shard_results(spec: ScenarioSpec,
                          results: list[ShardRunResult],
                          on_exchange=None) -> FleetResult:
    """Fold per-shard results into the global scenario result.

    Replays the exchange round by round through a
    :class:`RemoteShareLedger` (each round independently verified —
    the global half of the ledger audit), raises on any per-shard
    FrameSan finding, and recombines samples and totals exactly:
    counters sum, clocks take the fabric-wide maximum, and every
    ``daemon_ns`` account merges name by name.
    """
    results = sorted(results, key=lambda result: result.shard)
    expected = list(range(spec.shards))
    if [result.shard for result in results] != expected:
        raise ShardExchangeError(
            f"shard results incomplete: have "
            f"{[result.shard for result in results]}, need {expected}"
        )
    dirty = [result.shard for result in results if result.audit]
    if dirty:
        findings = "; ".join(
            f"shard {result.shard}: {problem}"
            for result in results for problem in result.audit
        )
        raise ShardExchangeError(
            f"per-shard FrameSan ledger audit failed on shard(s) "
            f"{dirty}: {findings}"
        )

    ledger = RemoteShareLedger()
    rounds = max(len(result.tables) for result in results)
    exchanged = applied = stale = 0
    resolve_ns = 0
    remote_saved = 0
    for round_no in range(rounds):
        outcome = ledger.resolve_round(_round_tables(results, round_no),
                                       round_no=round_no)
        exchanged += outcome.exchanged_cids
        applied += outcome.applied
        stale += outcome.stale_entries_dropped
        resolve_ns += outcome.charge_ns()
        remote_saved = outcome.remote_saved_frames
        if on_exchange is not None:
            on_exchange(outcome)

    combined = FleetResult()
    combined.samples = [_combined_sample(results, round_no)
                        for round_no in range(rounds)]

    totals: dict = {
        name: sum(result.totals[name] for result in results)
        for name in _SUMMED_TOTALS
    }
    daemon_ns: dict[str, int] = {}
    for result in results:
        for name, ns in result.totals["daemon_ns"].items():
            daemon_ns[name] = daemon_ns.get(name, 0) + ns
    # The coordinator's resolution service joins the interconnect
    # account; both are off every node's critical path.
    if resolve_ns:
        daemon_ns[EXCHANGE_DAEMON] = (
            daemon_ns.get(EXCHANGE_DAEMON, 0) + resolve_ns
        )
    totals["daemon_ns"] = {name: daemon_ns[name]
                           for name in sorted(daemon_ns)}
    totals["scan_ns"] = sum(daemon_ns.values())
    totals["clock_ns"] = max(result.totals["clock_ns"]
                             for result in results)
    totals["shards"] = spec.shards
    totals["exchange"] = {
        "rounds": rounds,
        "exchanged_cids": exchanged,
        "merge_intents_applied": applied,
        "remote_saved_frames": remote_saved,
        "stale_entries_dropped": stale,
        "resolve_ns": resolve_ns,
    }
    totals["per_shard"] = [
        {
            "shard": result.shard,
            "booted_vms": result.totals["booted_vms"],
            "booted_pages": result.totals["booted_pages"],
            "pages_scanned": result.totals["pages_scanned"],
            "clock_ns": result.totals["clock_ns"],
            "rounds": len(result.tables),
        }
        for result in results
    ]
    _global_audit(spec, results, totals)
    combined.totals = totals
    return combined


def _global_audit(spec: ScenarioSpec, results: list[ShardRunResult],
                  totals: dict) -> None:
    """Fabric-wide ledger audit over the recombined books."""
    planned = len(generate_plan(spec))
    if totals["booted_vms"] != planned or totals["retired_vms"] != planned:
        raise ShardExchangeError(
            f"global ledger audit: booted/retired "
            f"({totals['booted_vms']}/{totals['retired_vms']}) != planned "
            f"fleet size {planned}"
        )
    if totals["booted_pages"] != planned * spec.fleet.pages_per_vm:
        raise ShardExchangeError(
            "global ledger audit: booted_pages diverges from the plan"
        )
    for result in results:
        if result.totals["final_frames_in_use"] < 0:
            raise ShardExchangeError(
                f"global ledger audit: shard {result.shard} reports "
                f"negative frames in use"
            )


def run_sharded_serial(spec: ScenarioSpec, on_round=None,
                       on_exchange=None) -> FleetResult:
    """Reference executor: every shard in this process, in order.

    ``shards == 1`` short-circuits to the plain serial driver (the
    exact pre-sharding code path).  This is both the degraded mode of
    the shard pool and the byte-identity baseline its tests compare
    against.
    """
    if spec.shards == 1:
        return FleetDriver(spec).run()
    results = [run_one_shard(spec, shard, on_round=on_round)
               for shard in range(spec.shards)]
    return combine_shard_results(spec, results, on_exchange=on_exchange)
