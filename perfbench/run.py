"""End-to-end fleet benchmark of the VUsion simulator.

Runs one workload repeatedly for ``--seconds``, each repetition in a
fresh interpreter (``rep.py``), checks every repetition's output, and
prints every metric by name and unit.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(tracing off); with ``--trace 1`` they are the per-layer ones, from
traced repetitions alternated with untraced ones so the tracing
overhead is measured too.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-ksm --seed 1017 --seconds 30 --trace 0

Workloads: fleet-ksm, fleet-vusion, shard-1m (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (tracing off) and their units.
END_TO_END = {
    "wall_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Untraced repetitions every end-to-end run makes, however short
#: ``--seconds`` is (medians need at least three).
MIN_REPS = 3
#: One repetition is killed (and counted failed) after this long.
REP_TIMEOUT_S = 150.0
#: No repetition starts once this much of the run has gone, so one
#: invocation ends well within three minutes.
LAST_START_S = 120.0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".calls") or name in (
            "harness.steps", "mem.shard.exchanged_cids",
            "runner.retries") or (
            name.startswith("sim.") and "_ns" not in name):
        return "count"
    if name.endswith("host_ns_per_sim_ns"):
        return "ns/ns"
    if name.startswith("sim."):
        return "ns"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("ratio") or name == "trace.coverage":
        return "ratio"
    return "s"


def rep_command(workload: str, seed: int, trace: int, scale: str,
                inject: str) -> list[str]:
    return [sys.executable, str(HERE / "rep.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--scale", scale,
            "--inject", inject]


def rep_environment() -> dict:
    """The repetition's environment (rep.py pins the simulator's knobs
    itself; the hash seed must be set before its interpreter starts)."""
    return {**os.environ, "PYTHONHASHSEED": workloads.HASH_SEED}


def run_rep(workload: str, seed: int, trace: int, scale: str = "full",
            inject: str = "none", timeout: float = REP_TIMEOUT_S) -> dict:
    """Run one repetition in a fresh interpreter; returns its record.

    A repetition that crashes, hangs or prints no record comes back as
    a record with ``problems`` set, never as an exception.
    """
    command = rep_command(workload, seed, trace, scale, inject)
    spawned = time.monotonic_ns()
    process = subprocess.Popen(
        command + ["--spawn-ns", str(spawned)], cwd=ROOT,
        env=rep_environment(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The repetition leads its own process group: take its shard
        # workers down with it.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"traced": bool(trace),
                "problems": [f"timed out after {timeout:.0f}s"]}
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = stderr.strip().splitlines()[-5:]
        return {"traced": bool(trace),
                "problems": [f"no record (exit {process.returncode}): "
                             + " | ".join(tail)]}
    if process.returncode != 0 and not record.get("problems"):
        record["problems"] = [f"exit code {process.returncode}"]
    return record


def check_digests(records: list[dict]) -> str | None:
    """Fail every repetition whose payload digest is not the majority's.

    Returns the reference digest (the most common; ties go to the
    earliest repetition).
    """
    digests = [record["digest"] for record in records if "digest" in record]
    if not digests:
        return None
    reference = collections.Counter(digests).most_common(1)[0][0]
    for record in records:
        if "digest" in record and record["digest"] != reference:
            record["problems"].append(
                f"payload digest {record['digest'][:16]} differs from "
                f"{reference[:16]}")
    return reference


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(records: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics over the good untraced repetitions."""
    good = [r for r in records if not r["problems"] and not r["traced"]]
    step_ms = [step for record in good for step in record["steps_ms"]]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "step_ms_p50": percentile(step_ms, 0.5),
        "step_ms_p90": percentile(step_ms, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "setup_s": statistics.median(r["setup_s"] for r in good),
    }
    notes = {
        "wall_s": f"median of {len(good)} runs",
        "step_ms_p50": f"{len(step_ms)} steps over {len(good)} runs",
        "step_ms_p90": f"{len(step_ms)} steps, "
                       f"{len(step_ms) - int(0.9 * len(step_ms))} beyond",
        "peak_rss_mb": "median; parent + every shard worker",
        "setup_s": f"median of {len(good)} fresh interpreters",
    }
    return metrics, notes


def per_layer(records: list[dict]) -> dict:
    """Per-layer metrics: medians over the good traced repetitions."""
    good = [r for r in records if not r["problems"]]
    traced = [r for r in good if r["traced"]]
    untraced = [r for r in good if not r["traced"]]
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / untraced_wall
    metrics["harness.steps"] = statistics.median(
        len(r["steps_ms"]) for r in untraced)
    # Retried runs are failed runs, so count them over every run.
    metrics["runner.retries"] = sum(r.get("retries", 0) for r in records)
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: int,
            scale: str = "full", inject: dict | None = None) -> list[dict]:
    """All repetitions of one invocation.

    ``inject`` maps a repetition index to a fault injection (the
    self-tests use it to prove that failures are counted).
    """
    inject = inject or {}
    records: list[dict] = []
    started = time.monotonic()

    def more() -> bool:
        elapsed = time.monotonic() - started
        if elapsed >= LAST_START_S:
            return False
        done = len(records)
        if done < (2 if trace else MIN_REPS):
            return True
        if trace and done % 2:
            return True  # finish the untraced/traced pair
        # Start another repetition (pair) only if it should end in time.
        step = 2 if trace else 1
        return elapsed * (done + step) / done <= seconds

    while more():
        traced = trace and len(records) % 2 == 1
        records.append(run_rep(workload, seed, int(traced), scale,
                               inject.get(len(records), "none")))
    return records


def report(workload: str, seed: int, trace: int,
           records: list[dict]) -> dict | None:
    """Print the human-readable report; return the JSON result."""
    digest = check_digests(records)
    attempted = len(records)
    failed = sum(bool(record["problems"]) for record in records)
    print(f"perfbench {workload} seed={seed} trace={trace}: "
          f"{attempted} runs, {failed} failed")
    print(f"  error_rate   {failed / attempted:12.4f} 1    "
          f"(failed runs / attempted runs)")
    print(f"payload digest: {digest}")
    for index, record in enumerate(records):
        for problem in record["problems"]:
            print(f"run {index} FAILED: {problem.strip()}")
    good = [r for r in records if not r["problems"]]
    untraced_ok = any(not r["traced"] for r in good)
    traced_ok = any(r["traced"] for r in good)
    if not untraced_ok or (trace and not traced_ok):
        print("no successful run to measure", file=sys.stderr)
        return None
    manifest = good[0]["manifest"]
    print("host and knobs: " + json.dumps(manifest, sort_keys=True))

    if trace:
        metrics = per_layer(records)
        units = {name: unit_of(name) for name in metrics}
        print("per-layer metrics (medians of traced runs):")
        for name in sorted(metrics):
            print(f"  {name:48s} {metrics[name]:>18.6f} {units[name]}")
        print("daemon ledger: host seconds beside simulated ns")
        for daemon in ("ksmd", "khugepaged", "vusion", "vusion-free"):
            host = metrics[f"kernel.daemon.{daemon}.host_s"]
            sim = metrics[f"sim.daemon_ns.{daemon}"]
            if host or sim:
                per = metrics[f"kernel.daemon.{daemon}.host_ns_per_sim_ns"]
                print(f"  {daemon:12s} host {host:9.4f} s   sim "
                      f"{sim:>14.0f} ns   {per:8.3f} host ns/sim ns")
    else:
        metrics, notes = end_to_end(records)
        units = END_TO_END
        for name in END_TO_END:
            print(f"  {name:12s} {metrics[name]:12.4f} {units[name]:3s}  "
                  f"({notes[name]})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }


def preflight() -> str | None:
    """Why this checkout cannot run the benchmark, or None."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no simulator sources under {ROOT / 'src'}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1017)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small: a tiny instance of the same workload")
    args = parser.parse_args(argv)
    problem = preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    records = measure(args.workload, args.seed, args.seconds, args.trace,
                      args.scale)
    result = report(args.workload, args.seed, args.trace, records)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
