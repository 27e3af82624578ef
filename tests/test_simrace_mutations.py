"""Mutation meta-test for the simrace tier.

Each case plants one realistic concurrency bug into the *real* runner
and harness sources (``pool.py``, ``task.py``, ``fleet.py``) and
asserts the intended RACE rule catches it.  Every case lints the whole
``src`` tree with the mutated file swapped in, because the race tier's
concurrency model (spawn sites, worker reachability) is project-wide.
The dual is pinned too: the pristine tree must be race-clean with zero
RACE suppressions in ``src/repro/runner`` — the parallel-execution
code passes on its own merits, not via escape hatches.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.check import lint_project, render_findings

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
POOL = SRC / "repro" / "runner" / "pool.py"
TASK = SRC / "repro" / "runner" / "task.py"
FLEET = SRC / "repro" / "harness" / "fleet.py"

RACE_IDS = ("RACE001", "RACE002", "RACE003", "RACE004")

_BASE_SOURCES: dict[str, str] | None = None


def base_sources() -> dict[str, str]:
    """The pristine ``src`` tree, read once per test session."""
    global _BASE_SOURCES
    if _BASE_SOURCES is None:
        _BASE_SOURCES = {
            str(path): path.read_text(encoding="utf-8")
            for path in sorted(SRC.rglob("*.py"))
        }
    return _BASE_SOURCES


def mutate(path: pathlib.Path, edits: list[tuple[str, str]]) -> str:
    """Apply one bug's edits to a real source file; anchors must be
    unique so the meta-test fails loudly when the code moves."""
    source = path.read_text(encoding="utf-8")
    for old, new in edits:
        occurrences = source.count(old)
        assert occurrences == 1, (
            f"mutation anchor matched {occurrences}x in {path.name}; the "
            f"meta-test needs updating: {old!r}"
        )
        source = source.replace(old, new, 1)
    return source


def race_findings(path: pathlib.Path, source: str):
    sources = dict(base_sources())
    sources[str(path)] = source
    result = lint_project(sources, rule_ids=list(RACE_IDS))
    assert result.errors == []
    return result.findings


MUTANTS = [
    # -- RACE001: parent writes a payload after hand-off ---------------
    pytest.param(
        POOL,
        [(
            "        process = ctx.Process(\n"
            "            target=_worker_main,\n"
            "            args=(child_conn, self.run_item),\n"
            "            daemon=True,\n"
            "        )\n"
            "        process.start()\n",
            "        payload = [child_conn, self.run_item]\n"
            "        process = ctx.Process(\n"
            "            target=_worker_main,\n"
            "            args=payload,\n"
            "            daemon=True,\n"
            "        )\n"
            "        process.start()\n"
            "        payload.append(time.monotonic())\n",
        )],
        "RACE001",
        id="pool-start-mutates-spawn-payload-after-start",
    ),
    pytest.param(
        TASK,
        [(
            "        params = dict(env_overrides)\n"
            "        params[\"target\"] = resolved\n"
            "        return cls(kind=\"attack\", name=name, "
            "params=_freeze(params), seed=seed)",
            "        params = dict(env_overrides)\n"
            "        spec = cls(kind=\"attack\", name=name, "
            "params=_freeze(params), seed=seed)\n"
            "        params[\"target\"] = resolved\n"
            "        return spec",
        )],
        "RACE001",
        id="task-attack-writes-params-after-spec-construction",
    ),
    # -- RACE002: unordered completion order reaches a reduction -------
    pytest.param(
        POOL,
        [(
            "        results = [result for result in self._results "
            "if result is not None]\n",
            "        completed = {result for result in self._results "
            "if result is not None}\n"
            "        results = list(completed)\n",
        )],
        "RACE002",
        id="pool-run-freezes-results-through-a-set",
    ),
    pytest.param(
        FLEET,
        [(
            "            \"daemon_ns\": {name: kernel.stats.daemon_ns[name]\n"
            "                          for name in "
            "sorted(kernel.stats.daemon_ns)},",
            "            \"daemon_ns\": {name: kernel.stats.daemon_ns[name]\n"
            "                          for name in "
            "set(kernel.stats.daemon_ns)},",
        )],
        "RACE002",
        id="fleet-finalize-drops-daemon-ns-sort-key",
    ),
    # -- RACE003: undeclared worker reads of fork-inherited state ------
    pytest.param(
        TASK,
        [
            (
                "#: Task kinds understood by :func:`execute_task`.\n",
                "#: Task kinds understood by :func:`execute_task`.\n"
                "_RESULT_CACHE: dict = {}\n",
            ),
            (
                "    if spec.kind == \"experiment\":\n"
                "        return _run_experiment(spec, seed)\n",
                "    cached = _RESULT_CACHE.get(spec.task_id)\n"
                "    if cached is not None:\n"
                "        return cached\n"
                "    if spec.kind == \"experiment\":\n"
                "        return _run_experiment(spec, seed)\n",
            ),
        ],
        "RACE003",
        id="task-execute-reads-undeclared-module-cache",
    ),
    pytest.param(
        FLEET,
        [
            (
                "def generate_plan(spec: ScenarioSpec) -> list[VmPlan]:",
                "_PLAN_CACHE: dict = {}\n\n\n"
                "def generate_plan(spec: ScenarioSpec) -> list[VmPlan]:",
            ),
            (
                "    fleet = spec.fleet\n"
                "    rng = random.Random(spec.derived_seed(\"plan\"))\n",
                "    fleet = spec.fleet\n"
                "    cached = _PLAN_CACHE.get(spec.derived_seed(\"plan\"))\n"
                "    if cached is not None:\n"
                "        return cached\n"
                "    rng = random.Random(spec.derived_seed(\"plan\"))\n",
            ),
        ],
        "RACE003",
        id="fleet-generate-plan-reads-undeclared-module-cache",
    ),
    # -- RACE004: hazardous values on the pickle boundary --------------
    pytest.param(
        POOL,
        [(
            "            conn.send((\"ok\", result))\n",
            "            trace = open(\"/dev/null\", \"w\")\n"
            "            conn.send((\"ok\", result, trace))\n",
        )],
        "RACE004",
        id="pool-worker-ships-open-handle-through-pipe",
    ),
    pytest.param(
        POOL,
        [(
            "            target=_worker_main,\n"
            "            args=(child_conn, self.run_item),\n",
            "            target=lambda: _worker_main(child_conn, self.run_item),\n",
        )],
        "RACE004",
        id="pool-spawn-targets-a-lambda",
    ),
    pytest.param(
        TASK,
        [(
            "def _freeze(params: dict) -> tuple:\n"
            "    return tuple(sorted(params.items()))\n",
            "def _freeze(params: dict) -> tuple:\n"
            "    return tuple(set(params.items()))\n",
        )],
        "RACE004",
        id="task-freeze-returns-set-ordered-params",
    ),
]


class TestMutantsAreCaught:
    @pytest.mark.parametrize("path, edits, expected_rule", MUTANTS)
    def test_mutant_is_flagged_by_intended_rule(
        self, path, edits, expected_rule
    ):
        mutant = mutate(path, edits)
        findings = race_findings(path, mutant)
        hits = [f for f in findings if f.rule_id == expected_rule]
        assert hits, (
            f"mutant not caught; race findings: "
            f"{[(f.rule_id, f.path, f.line, f.message) for f in findings]}"
        )
        if expected_rule == "RACE003":
            # An undeclared read must name the owning binding and carry
            # a witness chain from a worker root.
            assert any("OWNERSHIP_FACTS" in f.message for f in hits)
            assert any("[" in f.message for f in hits)

    def test_freeze_mutant_reports_the_laundering_chain(self):
        # The set() is hidden inside _freeze(); the finding must land on
        # the TaskSpec construction site with _freeze in the witness.
        mutant = mutate(TASK, [(
            "def _freeze(params: dict) -> tuple:\n"
            "    return tuple(sorted(params.items()))\n",
            "def _freeze(params: dict) -> tuple:\n"
            "    return tuple(set(params.items()))\n",
        )])
        findings = race_findings(TASK, mutant)
        hits = [f for f in findings if f.rule_id == "RACE004"]
        assert any("_freeze" in f.message for f in hits)


class TestPristineTree:
    def test_src_is_race_clean(self):
        result = lint_project(base_sources(), rule_ids=list(RACE_IDS))
        assert result.errors == []
        assert result.findings == [], render_findings(result)

    def test_no_race_suppressions_in_runner(self):
        # The acceptance bar: the parallel-execution code is race-clean
        # on its own merits.
        pattern = re.compile(r"#\s*simlint:\s*disable=[^\n]*(RACE\d+|all)")
        offenders = []
        for path in sorted((SRC / "repro" / "runner").rglob("*.py")):
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                if pattern.search(line):
                    offenders.append(f"{path}:{lineno}: {line.strip()}")
        assert offenders == []
