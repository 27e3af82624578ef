"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays (and measures) its own set-up: interpreter start, imports, spec
construction, ``Scenario``/``Kernel`` construction and, for the sharded
workload, pool start.  The last line of standard output is one JSON
record with the host timings, the output checks and, with
``--trace 1``, the per-layer metrics.

Usage (normally driven by run.py)::

    python3 perfbench/rep.py --workload fleet-ksm --seed 1017 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import pickle
import platform
import resource
import sys
import time
import traceback

import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = pathlib.Path(__file__).resolve().parent / "out"

#: Fault injections the self-tests use to prove failures are counted.
INJECTIONS = ("none", "corrupt-digest", "degrade")

#: Daemons whose host time is reported next to their simulated ledger.
DAEMONS = ("ksmd", "khugepaged", "vusion", "vusion-free")


def pin_environment() -> None:
    """Set the simulator's knob variables to the benchmark's values."""
    for name, value in workloads.PINNED_ENV.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def import_simulator():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    origin = pathlib.Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {SRC}")
    return repro


class Probe:
    """Host-side measurements of one run, taken from outside the program.

    It hooks ``Kernel.idle`` (step boundaries and the kernel that ran),
    the shard pool's ``shard_fn=`` hook (per-shard service, steps and
    RSS, measured inside the worker) and ``combine_shard_results`` (to
    collect what the workers measured).
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.idle_returns: list[int] = []
        self.kernel = None
        self.shard_infos: list[dict] = []
        self.events: list[object] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        from repro.harness import shardfleet
        from repro.kernel.kernel import Kernel

        idle = Kernel.idle
        returns = self.idle_returns
        clock = time.perf_counter_ns
        probe = self

        def stepped_idle(kernel, duration):
            idle(kernel, duration)
            returns.append(clock())
            probe.kernel = kernel

        combine = shardfleet.combine_shard_results

        def collecting_combine(spec, results, on_exchange=None):
            probe.shard_infos = [getattr(result, "perfbench", None)
                                 for result in results]
            return combine(spec, results, on_exchange=on_exchange)

        self._patches = [(Kernel, "idle", idle),
                         (shardfleet, "combine_shard_results", combine)]
        Kernel.idle = stepped_idle
        shardfleet.combine_shard_results = collecting_combine

    def uninstall(self) -> None:
        for owner, attribute, original in self._patches:
            setattr(owner, attribute, original)
        self._patches = []

    # -- hooks ----------------------------------------------------------
    def on_event(self, event) -> None:
        self.events.append(event)

    def shard_fn(self, spec, shard, on_round=None):
        """Run one shard inside a pool worker, measuring it there."""
        from repro.harness.shardfleet import run_one_shard

        entered = time.monotonic_ns()
        self.idle_returns.clear()
        if self.tracer is not None:
            self.tracer.reset()
        started = time.perf_counter_ns()
        result = run_one_shard(spec, shard, on_round=on_round)
        service = time.perf_counter_ns() - started
        info = {
            "shard": shard,
            "pid": os.getpid(),
            "entered_ns": entered,
            "service_ns": service,
            "steps_ns": steps(self.idle_returns),
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "layers": layer_state(self.kernel),
        }
        if self.tracer is not None:
            info["pickled_bytes"] = len(pickle.dumps(result))
            info["trace"] = self.tracer.snapshot()
        result.perfbench = info
        return result


def steps(returns: list[int]) -> list[int]:
    """Host ns between consecutive ``Kernel.idle`` returns."""
    return [after - before for before, after in zip(returns, returns[1:])]


def layer_state(kernel) -> dict:
    """Knobs and counters the program keeps, read after a run."""
    if kernel is None:
        return {}
    physmem = kernel.physmem
    engine = kernel.fusion
    fingerprints = physmem.fingerprints.stats
    return {
        "frame_store": physmem.store_kind,
        "scan_kernel": physmem.scan_kernel_kind,
        "scan_backend": physmem.scan_kernel.backend,
        "fingerprint_enabled": bool(kernel.spec.fingerprint_enabled),
        "sanitize": kernel.sanitizer is not None,
        "digest_hits": fingerprints.digest_hits,
        "digest_misses": fingerprints.digest_misses,
        "incremental": engine.incremental_stats() if engine else {},
    }


def payload_digest(result) -> str:
    from repro.runner import canonical_json

    text = canonical_json(result.to_payload())
    return hashlib.sha256(text.encode()).hexdigest()


def host_manifest(state: dict, workers: int) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scan_backend": state.get("scan_backend"),
        "frame_store": state.get("frame_store"),
        "scan_kernel": state.get("scan_kernel"),
        "fingerprint_enabled": state.get("fingerprint_enabled"),
        "sanitize": state.get("sanitize"),
        "workers": workers,
        "env": {name: os.environ.get(name)
                for name in (*workloads.PINNED_ENV, "PYTHONHASHSEED")},
    }


def output_checks(workload, totals: dict, engine=None) -> list[str]:
    """The model-level checks every run must pass."""
    problems = []
    frames = workload.spec.frames
    if totals["peak_frames_in_use"] > frames:
        problems.append(f"peak_frames_in_use {totals['peak_frames_in_use']}"
                        f" > frames {frames}")
    # The paper's verdicts, on the fleets only: shard-1m's 2048-page VMs
    # retire after 2 s, before ksmd reaches many adversaries' candidate
    # pages, so whether any probe hits there depends on the seed.
    if not workload.sharded:
        if workload.system == "ksm" and not totals["probe_hits"] > 0:
            problems.append("KSM leaked nothing: probe_hits == 0")
        if workload.system == "vusion" and totals["probe_hits"] != 0:
            problems.append(
                f"VUsion leaked: probe_hits == {totals['probe_hits']}")
    if engine is not None:
        problems.extend(f"accounting: {problem}"
                        for problem in engine.check_accounting())
    return problems


def run_fleet(workload, probe: Probe) -> dict:
    from repro.harness.fleet import FleetDriver

    driver = FleetDriver(workload.spec)
    if probe.tracer is not None:
        probe.tracer.reset()  # trace the run, not the construction
    ready = time.monotonic_ns()
    result = driver.run()
    done = time.monotonic_ns()
    return {
        "ready_ns": ready,
        "done_ns": done,
        "result": result,
        "engine": driver.scenario.engine,
        "steps_ns": steps(probe.idle_returns),
        "rss_kb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss],
        "layers": layer_state(probe.kernel),
        "workers": 1,
    }


def run_shards(workload, probe: Probe, inject: str) -> dict:
    from repro.runner import ShardPoolConfig, run_sharded

    config = ShardPoolConfig(
        workers=workloads.SHARD_WORKERS, timeout_s=120.0,
        start_method="perfbench-no-such-method" if inject == "degrade"
        else None,
    )
    called = time.monotonic_ns()
    result = run_sharded(workload.spec, config=config,
                         on_event=probe.on_event, shard_fn=probe.shard_fn)
    done = time.monotonic_ns()
    infos = [info for info in probe.shard_infos if info]
    first_entry: dict[int, int] = {}
    rss: dict[int, int] = {}
    for info in infos:
        pid = info["pid"]
        first_entry[pid] = min(first_entry.get(pid, info["entered_ns"]),
                               info["entered_ns"])
        rss[pid] = max(rss.get(pid, 0), info["rss_kb"])
    # Ready once every worker has started its first shard.
    ready = max(first_entry.values()) if first_entry else called
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    shard_steps = [step for info in infos for step in info["steps_ns"]]
    return {
        "called_ns": called,
        "ready_ns": ready,
        "done_ns": done,
        "result": result,
        "engine": None,
        "steps_ns": shard_steps or steps(probe.idle_returns),
        "rss_kb": [own_rss] + [rss[pid] for pid in sorted(rss)],
        "layers": infos[0]["layers"] if infos else layer_state(probe.kernel),
        "workers": workloads.SHARD_WORKERS,
        "shard_infos": infos,
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(run: dict, trace: dict, wall_ns: int) -> dict:
    """Per-layer metrics of one traced run (see BENCHMARK.json)."""
    from tracer import SEARCH_HITS

    stats = trace["stats"]
    totals = run["result"].totals
    metrics: dict[str, float] = {}

    def calls(name):
        return stats.get(name, [0, 0, 0])[0]

    def total_s(name):
        return stats.get(name, [0, 0, 0])[1] / 1e9

    def self_s(name):
        return stats.get(name, [0, 0, 0])[2] / 1e9

    for name in ("harness.boot", "harness.retire", "kernel.access",
                 "kernel.map_page", "kernel.unmap_page",
                 "fusion.ksm.scan_tick", "fusion.tree.search",
                 "fusion.tree.insert", "fusion.tree.remove",
                 "core.vusion.scan_tick",
                 "core.vusion.handle_reserved_fault", "mmu.walk",
                 "mmu.map_page", "mmu.unmap", "mem.physmem.read",
                 "mem.physmem.write", "mem.physmem.copy",
                 "mem.physmem.merge_key", "mem.buddy.alloc",
                 "mem.buddy.free", "mem.random_pool.alloc",
                 "mem.random_pool.free", "mem.scankernel"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    for name in ("harness.run", "harness.sample", "kernel.idle"):
        metrics[f"{name}.self_s"] = self_s(name)
    metrics["harness.combine.s"] = total_s("harness.combine")

    daemon_ns = totals["daemon_ns"]
    for daemon in DAEMONS:
        host = total_s(f"kernel.daemon.{daemon}")
        simulated = daemon_ns.get(daemon, 0)
        metrics[f"kernel.daemon.{daemon}.host_s"] = host
        metrics[f"kernel.daemon.{daemon}.host_ns_per_sim_ns"] = ratio(
            host * 1e9, simulated)
        metrics[f"sim.daemon_ns.{daemon}"] = simulated
    metrics["sim.daemon_ns.shardx"] = daemon_ns.get("shardx", 0)
    for name in ("cow_faults", "coa_faults", "merges", "pages_scanned",
                 "clock_ns"):
        metrics[f"sim.{name}"] = totals[name]

    layers = run["layers_all"]
    incremental = [state.get("incremental", {}) for state in layers]
    replayed = sum(inc.get("replayed_pure", 0) + inc.get("replayed_charged", 0)
                   for inc in incremental)
    metrics["fusion.tree_hit_ratio"] = ratio(trace["counts"][SEARCH_HITS],
                                             calls("fusion.tree.search"))
    metrics["fusion.merge_ratio"] = ratio(totals["merges"],
                                          totals["pages_scanned"])
    metrics["fusion.replay_ratio"] = ratio(replayed, totals["pages_scanned"])
    hits = sum(state.get("digest_hits", 0) for state in layers)
    misses = sum(state.get("digest_misses", 0) for state in layers)
    metrics["mem.digest_hit_ratio"] = ratio(hits, hits + misses)

    infos = run.get("shard_infos", [])
    service_ns = [info["service_ns"] for info in infos]
    metrics["runner.shard_service_s"] = sum(service_ns) / 1e9
    metrics["runner.shard_service_max_s"] = max(service_ns, default=0) / 1e9
    metrics["runner.worker_busy_ratio"] = ratio(
        sum(service_ns), run["workers"] * wall_ns) if infos else 0.0
    metrics["runner.pickled_result_bytes"] = sum(
        info.get("pickled_bytes", 0) for info in infos)
    metrics["runner.pool_start_s"] = (
        (run["ready_ns"] - run["called_ns"]) / 1e9 if infos else 0.0)
    metrics["runner.pool.s"] = total_s("runner.pool")

    exchange = totals.get("exchange", {})
    metrics["mem.shard.export.s"] = total_s("mem.shard.export")
    metrics["mem.shard.resolve_exchange.s"] = total_s(
        "mem.shard.resolve_exchange")
    metrics["mem.shard.verify_exchange.s"] = total_s(
        "mem.shard.verify_exchange")
    metrics["mem.shard.exchanged_cids"] = exchange.get("exchanged_cids", 0)
    metrics["mem.shard.intent_ratio"] = ratio(
        exchange.get("merge_intents_applied", 0),
        exchange.get("exchanged_cids", 0))
    return metrics


def execute(args) -> dict:
    """Run one repetition and return its record (raises on crashes)."""
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "traced": bool(args.trace)}
    pin_environment()
    import_simulator()
    import tracer as tracing

    workload = workloads.build(args.workload, args.seed, args.scale)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    probe = Probe(tracer)
    probe.install()
    try:
        if workload.sharded:
            run = run_shards(workload, probe, args.inject)
        else:
            run = run_fleet(workload, probe)
    finally:
        probe.uninstall()
        if tracer is not None:
            tracer.uninstall()
    result = run["result"]
    totals = result.totals
    wall_ns = run["done_ns"] - run["ready_ns"]
    record["setup_s"] = (run["ready_ns"] - args.spawn_ns) / 1e9
    record["wall_s"] = wall_ns / 1e9
    record["steps_ms"] = [step / 1e6 for step in run["steps_ns"]]
    record["rss_mb"] = [kb / 1024 for kb in run["rss_kb"]]
    record["peak_rss_mb"] = sum(record["rss_mb"])
    record["manifest"] = host_manifest(run["layers"], run["workers"])
    record["digest"] = payload_digest(result)
    if args.inject == "corrupt-digest":
        record["digest"] = hashlib.sha256(
            (record["digest"] + "corrupt").encode()).hexdigest()
    problems = output_checks(workload, totals, run["engine"])
    for event in probe.events:
        kind = type(event).__name__
        if kind in ("ShardPoolDegraded", "ShardWorkerRetrying"):
            problems.append(f"shard pool: {kind} {event}")
    record["retries"] = sum(type(event).__name__ == "ShardWorkerRetrying"
                            for event in probe.events)
    record["problems"] = problems

    if tracer is not None:
        infos = run.get("shard_infos", [])
        snapshots = [tracer.snapshot()] + [info["trace"] for info in infos]
        trace = tracing.Tracer.merge(snapshots)
        run["layers_all"] = ([info["layers"] for info in infos]
                             or [run["layers"]])
        metrics = layer_metrics(run, trace, wall_ns)
        # Host seconds inside any span over host seconds traced: the
        # parent's run plus every worker's shard service.
        traced_ns = wall_ns + sum(info["service_ns"] for info in infos)
        metrics["trace.coverage"] = ratio(trace["covered_ns"], traced_ns)
        metrics["trace.wall_s"] = wall_ns / 1e9
        record["layers"] = metrics
        OUT.mkdir(exist_ok=True)
        out = OUT / f"trace-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload,
                                   "seed": args.seed,
                                   "processes": snapshots}) + "\n")
    return record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1017)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--spawn-ns", type=int, default=None,
                        help="time.monotonic_ns() when the parent started "
                             "this interpreter (default: now)")
    parser.add_argument("--inject", choices=INJECTIONS, default="none")
    args = parser.parse_args(argv)
    if args.spawn_ns is None:
        args.spawn_ns = time.monotonic_ns()
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    code = 0
    try:
        record = execute(args)
    except Exception:
        # Any crash is a failed run, reported as a record like the rest.
        record = {"workload": args.workload, "seed": args.seed,
                  "traced": bool(args.trace),
                  "problems": [traceback.format_exc()]}
        code = 1
    print(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
