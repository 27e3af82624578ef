"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``       — show every reproducible experiment, attack, engine.
* ``run``        — the unified entry point: fan any selection of
  experiments and attack-matrix cells out across a worker pool
  (``--jobs N``), with per-task seeds, retries and JSON artifacts.
* ``experiment`` — thin alias: one table/figure through the runner.
* ``attack``     — thin alias: one attack vs one engine.
* ``fleet``      — spec-driven consolidation scenarios: run a preset
  (or a ScenarioSpec JSON file) through the streaming fleet driver,
  or export a preset's spec as JSON (``--export-spec``).
* ``matrix``     — thin alias: the Table 1 attack matrix.
* ``report``     — run every experiment and write a combined report.
* ``lint``       — simlint, the simulation-invariant linter
  (determinism, write-barrier, layering rules; see docs/CHECKING.md).
"""

from __future__ import annotations

import argparse
import sys

from repro.attacks import ALL_ATTACKS
from repro.fusion.registry import ENGINE_SPECS
from repro.harness.experiments import EXPERIMENTS, ExperimentResult

ATTACKS_BY_NAME = {attack.name: attack for attack in ALL_ATTACKS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Secure Page Fusion with VUsion' (SOSP '17)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, attacks and engines")

    run = sub.add_parser(
        "run",
        help="run experiments/attack cells through the parallel runner",
        description="Selectors: experiment names, tag:<tag>, "
                    "attack:<name>[@<engine>], fleet:<preset>[@<system>], "
                    "'matrix', 'all'.",
    )
    run.add_argument("selectors", nargs="*",
                     help="what to run (see --help for the grammar)")
    run.add_argument("--all", action="store_true", dest="select_all",
                     help="every experiment in the registry")
    run.add_argument("--jobs", "-j", type=int, default=None,
                     help="worker processes (default: REPRO_JOBS or 1; "
                          "0 = all cpus)")
    run.add_argument("--shards", type=int, default=None,
                     help="worker processes per sharded fleet scenario "
                          "(default: REPRO_SHARDS or 1; 0 = all cpus; "
                          "more than 1 needs --serial; results are "
                          "byte-identical for any value)")
    run.add_argument("--out", default="results/run",
                     help="artifact directory (default results/run)")
    run.add_argument("--no-artifacts", action="store_true",
                     help="skip writing JSON artifacts")
    run.add_argument("--seed", type=int, default=1017,
                     help="root seed; per-task seeds derive from it")
    run.add_argument("--full", action="store_true",
                     help="full scale (slower, closer to the paper)")
    run.add_argument("--timeout", type=float, default=None,
                     help="per-task timeout in seconds")
    run.add_argument("--retries", type=int, default=2,
                     help="retry budget per task (default 2)")
    run.add_argument("--serial", action="store_true",
                     help="force in-process serial execution")

    exp = sub.add_parser("experiment", help="regenerate a table or figure")
    exp.add_argument("name", choices=sorted(EXPERIMENTS))
    exp.add_argument("--full", action="store_true",
                     help="full scale (slower, closer to the paper)")
    exp.add_argument("--seed", type=int, default=1017)

    atk = sub.add_parser("attack", help="run one attack against one engine")
    atk.add_argument("name", choices=sorted(ATTACKS_BY_NAME))
    atk.add_argument("--target", default=None,
                     choices=sorted(ENGINE_SPECS),
                     help="engine to attack (default: the attack's "
                          "published insecure target)")
    atk.add_argument("--seed", type=int, default=1017)

    fleet = sub.add_parser(
        "fleet",
        help="run a spec-driven consolidation scenario",
        description="Run a fleet preset (or a ScenarioSpec JSON file) "
                    "through the streaming consolidation driver.",
    )
    from repro.harness.fleet import FLEET_PRESETS
    from repro.harness.scenario import PRESETS as SYSTEM_PRESETS

    fleet.add_argument("preset", nargs="?", choices=sorted(FLEET_PRESETS),
                       help="fleet preset (omit when using --spec)")
    fleet.add_argument("--system", default="ksm",
                       choices=sorted(SYSTEM_PRESETS),
                       help="system column to run (default ksm)")
    fleet.add_argument("--full", action="store_true",
                       help="full scale (more VMs, slower)")
    fleet.add_argument("--seed", type=int, default=1017)
    fleet.add_argument("--spec", default=None, metavar="FILE",
                       help="run a ScenarioSpec JSON file instead of a preset")
    fleet.add_argument("--export-spec", default=None, metavar="FILE",
                       help="write the preset's ScenarioSpec JSON to FILE "
                            "('-' for stdout) and exit without running")
    fleet.add_argument("--shards", type=int, default=None,
                       help="worker processes executing the scenario's "
                            "shard topology (default: REPRO_SHARDS or 1; "
                            "0 = all cpus; results are byte-identical "
                            "for any value)")
    fleet.add_argument("--verbose", "-v", action="store_true",
                       help="stream per-shard round/exchange progress "
                            "(shard balance)")

    matrix = sub.add_parser("matrix", help="run the full Table 1 attack matrix")
    matrix.add_argument("--seed", type=int, default=1017)

    report = sub.add_parser(
        "report", help="run every experiment and write a combined report"
    )
    report.add_argument("--full", action="store_true")
    report.add_argument("--seed", type=int, default=1017)
    report.add_argument("--jobs", "-j", type=int, default=1)
    report.add_argument("--output", default="results/full_report.txt")

    from repro.check.cli import add_lint_parser

    add_lint_parser(sub)
    return parser


def cmd_list() -> int:
    print("experiments (repro run <name> / repro experiment <name>):")
    for name in sorted(EXPERIMENTS):
        spec = EXPERIMENTS[name]
        tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
        print(f"  {name:22s} {spec.paper_ref}{tags}")
    print("\nattacks (repro run attack:<name>[@<engine>]):")
    for name in sorted(ATTACKS_BY_NAME):
        attack = ATTACKS_BY_NAME[name]
        print(f"  {name:22s} insecure target: {attack.default_target}")
    print("\nfleet presets (repro fleet <preset> / repro run "
          "fleet:<preset>[@<system>]):")
    from repro.harness.fleet import FLEET_PRESETS

    for name in sorted(FLEET_PRESETS):
        print(f"  {name:22s} {FLEET_PRESETS[name].description}")
    print("\nengines:")
    for name in sorted(ENGINE_SPECS):
        print(f"  {name:22s} {ENGINE_SPECS[name].description}")
    return 0


def _result_from_payload(payload: dict) -> ExperimentResult:
    """Rebuild a renderable ExperimentResult from a task payload."""
    return ExperimentResult(
        experiment=payload["experiment"],
        headers=payload["headers"],
        rows=payload["rows"],
        series={label: [tuple(point) for point in series]
                for label, series in payload["series"].items()},
        checks=payload["checks"],
        notes=payload["notes"],
    )


def _print_attack_payload(payload: dict) -> None:
    verdict = "SUCCEEDED" if payload["success"] else "defeated"
    print(f"{payload['attack']} vs {payload['target']}: {verdict}")
    for key, value in payload["evidence"].items():
        if isinstance(value, list) and len(value) > 8:
            value = f"[{len(value)} samples]"
        print(f"  {key}: {value}")


def cmd_run(args) -> int:
    from repro.analysis.report import format_run_summary
    from repro.runner import (
        ProgressPrinter,
        RunnerConfig,
        expand_selectors,
        resolve_jobs,
        run_tasks,
        write_artifacts,
    )

    try:
        tasks = expand_selectors(
            args.selectors,
            select_all=args.select_all,
            scale="full" if args.full else "quick",
        )
        jobs = resolve_jobs(args.jobs, default=1)
        shard_workers = resolve_jobs(args.shards, env_var="REPRO_SHARDS",
                                     default=1)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if shard_workers > 1 and not args.serial:
        # Pool workers are daemonic and may not start children, so a
        # task's shard pool would silently run in-process.
        print(f"error: {shard_workers} shard workers need --serial: "
              "tasks on the worker pool cannot start a shard pool",
              file=sys.stderr)
        return 2
    config = RunnerConfig(
        jobs=jobs,
        timeout_s=args.timeout,
        max_retries=args.retries,
        force_serial=args.serial,
        shard_workers=shard_workers,
    )
    results = run_tasks(tasks, root_seed=args.seed, config=config,
                        on_event=ProgressPrinter())
    print()
    print(format_run_summary(results))
    if not args.no_artifacts:
        manifest = write_artifacts(
            args.out, results, root_seed=args.seed, jobs=jobs,
            extra_meta={"selectors": list(args.selectors)
                        + (["all"] if args.select_all else [])},
        )
        print(f"\nartifacts written to {manifest.parent}")
    ok = all(r.ok and r.checks_pass is not False for r in results)
    return 0 if ok else 1


def _run_single(task, seed: int):
    """Alias path: one task, serial, explicit seed (no derivation)."""
    from dataclasses import replace as dc_replace

    from repro.runner import RunnerConfig, run_tasks

    task = dc_replace(task, seed=seed)
    return run_tasks([task], root_seed=seed,
                     config=RunnerConfig(jobs=1, force_serial=True))[0]


def cmd_experiment(name: str, full: bool, seed: int) -> int:
    from repro.runner import TaskSpec

    task = TaskSpec.experiment(name, scale="full" if full else "quick")
    outcome = _run_single(task, seed)
    if not outcome.ok:
        print(f"error: {outcome.error}", file=sys.stderr)
        return 1
    result = _result_from_payload(outcome.payload)
    print(result.render())
    return 0 if result.all_checks_pass else 1


def cmd_attack(name: str, target: str | None, seed: int) -> int:
    from repro.runner import TaskSpec

    outcome = _run_single(TaskSpec.attack(name, target=target), seed)
    if not outcome.ok:
        print(f"error: {outcome.error}", file=sys.stderr)
        return 1
    _print_attack_payload(outcome.payload)
    return 0


def _print_fleet_totals(name: str, system: str, totals: dict) -> None:
    print(f"fleet {name} vs {system}:")
    for key in (
        "booted_vms", "retired_vms", "booted_pages", "peak_resident_vms",
        "peak_frames_in_use", "peak_saved_frames", "final_saved_frames",
        "probes", "probe_hits", "scan_ns", "clock_ns",
    ):
        print(f"  {key:20s} {totals.get(key)}")


def cmd_fleet(args) -> int:
    import pathlib

    from repro.errors import ReproError
    from repro.harness.fleet import FLEET_PRESETS
    from repro.harness.spec import ScenarioSpec
    from repro.runner import (
        ProgressPrinter,
        ShardPoolConfig,
        resolve_jobs,
        run_sharded,
    )

    try:
        shard_workers = resolve_jobs(args.shards, env_var="REPRO_SHARDS",
                                     default=1)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.spec is not None:
        try:
            spec = ScenarioSpec.from_json(
                pathlib.Path(args.spec).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        if args.preset is None:
            print("error: give a fleet preset or --spec FILE",
                  file=sys.stderr)
            return 2
        scale = "full" if args.full else "quick"
        spec = FLEET_PRESETS[args.preset].spec(
            system=args.system, scale=scale, seed=args.seed)
        if args.export_spec is not None:
            if args.export_spec == "-":
                sys.stdout.write(spec.to_json())
            else:
                path = pathlib.Path(args.export_spec)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(spec.to_json())
                print(f"spec written to {path}")
            return 0
    try:
        result = run_sharded(
            spec,
            config=ShardPoolConfig(workers=shard_workers),
            on_event=ProgressPrinter(verbose=args.verbose),
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_fleet_totals(spec.name, spec.system.label, result.totals)
    return 0


def cmd_matrix(seed: int) -> int:
    return cmd_experiment("table1", full=False, seed=seed)


def cmd_report(full: bool, seed: int, jobs: int, output: str) -> int:
    """Run the whole evaluation and write one combined report."""
    import pathlib

    from repro.runner import RunnerConfig, TaskSpec, run_tasks

    scale = "full" if full else "quick"
    tasks = [
        TaskSpec.experiment(name, scale=scale, seed=seed)
        for name in EXPERIMENTS
    ]
    config = RunnerConfig(jobs=jobs, force_serial=(jobs <= 1))
    results = run_tasks(tasks, root_seed=seed, config=config)
    sections = []
    all_pass = True
    for outcome in results:
        name = outcome.spec.name
        if outcome.ok:
            result = _result_from_payload(outcome.payload)
            status = "OK" if result.all_checks_pass else "CHECKS FAILED"
            all_pass = all_pass and result.all_checks_pass
            body = result.render()
        else:
            status = outcome.status.upper()
            all_pass = False
            body = outcome.error or outcome.status
        print(f"{name:22s} {status:14s} [{outcome.duration_s:.1f}s]",
              flush=True)
        sections.append(f"### {name} ({status})\n\n{body}")
    path = pathlib.Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n\n\n".join(sections) + "\n")
    print(f"\nreport written to {path}")
    return 0 if all_pass else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "experiment":
        return cmd_experiment(args.name, args.full, args.seed)
    if args.command == "attack":
        return cmd_attack(args.name, args.target, args.seed)
    if args.command == "fleet":
        return cmd_fleet(args)
    if args.command == "matrix":
        return cmd_matrix(args.seed)
    if args.command == "report":
        return cmd_report(args.full, args.seed, args.jobs, args.output)
    if args.command == "lint":
        from repro.check.cli import cmd_lint

        return cmd_lint(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
