"""Mutation meta-test: the analyzer is itself under test.

Each case plants one realistic bug — a single edit — into the *real*
engine sources (``vusion.py``, ``ksm.py``, ``buddy.py``, ``task.py``,
``wpf.py``, ``artifacts.py``) and asserts the matching FLOW rule
catches it.  The intraprocedural cases lint the mutated file alone;
the interprocedural cases lint the whole ``src`` tree with the mutated
file swapped in, because FLOW003-ip/FLOW004-ip/FLOW005/FLOW006 only
fire across function boundaries.  The dual is pinned too: the pristine
tree must analyze completely clean under every flow rule, with zero
FLOW suppressions in ``repro.core``/``repro.fusion``/``repro.mem``/
``repro.runner``.  Together these bound both false negatives and
false positives on the code that matters.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.check import lint_paths, lint_project, lint_source, render_findings
from repro.check.engine import module_name_for

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
VUSION = SRC / "repro" / "core" / "vusion.py"
KSM = SRC / "repro" / "fusion" / "ksm.py"
BUDDY = SRC / "repro" / "mem" / "buddy.py"
TASK = SRC / "repro" / "runner" / "task.py"
WPF = SRC / "repro" / "fusion" / "wpf.py"
ARTIFACTS = SRC / "repro" / "runner" / "artifacts.py"

FLOW_IDS = ("FLOW001", "FLOW002", "FLOW003", "FLOW004")
IP_IDS = ("FLOW003-ip", "FLOW004-ip", "FLOW005", "FLOW006")

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


def mutate(path: pathlib.Path, old: str, new: str) -> str:
    """One-edit mutant of a real source file; the anchor must be unique."""
    source = path.read_text(encoding="utf-8")
    occurrences = source.count(old)
    assert occurrences == 1, (
        f"mutation anchor matched {occurrences}x in {path.name}; the "
        f"meta-test needs updating: {old!r}"
    )
    return source.replace(old, new, 1)


def flow_findings(source: str, path: pathlib.Path):
    return [
        finding
        for finding in lint_source(
            source, path=str(path), module=module_name_for(path)
        )
        if finding.rule_id in FLOW_IDS
    ]


MUTANTS = [
    pytest.param(
        VUSION,
        "            process, vaddr, node.pfn, self._fused_flags\n",
        "            process, vaddr, node.pfn, PteFlags.USER | PteFlags.WRITABLE\n",
        "FLOW001",
        id="vusion-merge-maps-shared-node-accessible",
    ),
    pytest.param(
        KSM,
        "            process, vaddr, node.pfn, self._fused_flags()\n",
        "            process, vaddr, node.pfn, PteFlags.USER | PteFlags.WRITABLE\n",
        "FLOW001",
        id="ksm-merge-skips-cache-disable-path",
    ),
    pytest.param(
        VUSION,
        "            process, vaddr, new_pfn, self._fused_flags\n",
        "            process, vaddr, new_pfn, PteFlags.USER | PteFlags.WRITABLE\n",
        "FLOW001",
        id="vusion-fake-merge-pins-accessible-frame",
    ),
    pytest.param(
        VUSION,
        "        self._release_scanned_frame(old_pfn, refcount)\n"
        "        self.stats.merges += 1",
        "        self._release_scanned_frame(old_pfn, refcount)\n"
        "        if refcount:\n"
        "            return\n"
        "        self.stats.merges += 1",
        "FLOW002",
        id="vusion-merge-early-return-drops-charge",
    ),
    pytest.param(
        KSM,
        "        self._maybe_release_node(node_pfn)\n"
        "        kernel.emit(\"fusion:unmerge\", pid=process.pid, "
        "vaddr=vaddr, pfn=node_pfn)",
        "        self._maybe_release_node(node_pfn)",
        "FLOW002",
        id="ksm-unmerge-drops-ledger-event",
    ),
    pytest.param(
        VUSION,
        "        kernel.remap_page(\n"
        "            process, vaddr, new_pfn, PteFlags.USER | PteFlags.WRITABLE\n"
        "        )",
        "        kernel.remap_page(\n"
        "            process, vaddr, node_pfn, PteFlags.USER | PteFlags.WRITABLE\n"
        "        )",
        "FLOW003",
        id="vusion-copy-on-access-leaks-fresh-frame",
    ),
    pytest.param(
        BUDDY,
        "        pfn = self._pop_free(current)\n",
        "        pfn = self._pop_free(current)\n"
        "        if self.alloc_count < 0:\n"
        "            return -1\n",
        "FLOW003",
        id="buddy-alloc-early-return-leaks-pfn",
    ),
    pytest.param(
        TASK,
        "    return _run_selftest(spec, seed, attempt)",
        "    return {**_run_selftest(spec, seed, attempt), "
        "\"finished_at\": time.time()}",
        "FLOW004",
        id="execute-task-returns-wall-clock",
    ),
]


class TestMutantsAreCaught:
    @pytest.mark.parametrize("path, old, new, expected_rule", MUTANTS)
    def test_mutant_is_flagged_by_intended_rule(
        self, path, old, new, expected_rule
    ):
        mutant = mutate(path, old, new)
        findings = flow_findings(mutant, path)
        assert expected_rule in {f.rule_id for f in findings}, (
            f"mutant not caught; flow findings: "
            f"{[(f.rule_id, f.line, f.message) for f in findings]}"
        )

    @pytest.mark.parametrize("path, old, new, expected_rule", MUTANTS)
    def test_pristine_counterpart_is_clean(self, path, old, new, expected_rule):
        # The un-mutated file must not trip the rule the mutant trips —
        # otherwise the catch above proves nothing.
        source = path.read_text(encoding="utf-8")
        findings = flow_findings(source, path)
        assert findings == [], render_findings_short(findings)


def render_findings_short(findings) -> str:
    return "; ".join(
        f"{f.rule_id}@{f.path}:{f.line}: {f.message}" for f in findings
    )


# ----------------------------------------------------------------------
# Interprocedural mutants: whole-tree analysis, one file swapped out
# ----------------------------------------------------------------------
def ip_findings(path: pathlib.Path, source: str):
    sources = dict(base_sources())
    sources[str(path)] = source
    result = lint_project(sources, rule_ids=list(IP_IDS))
    assert result.errors == []
    return result.findings


IP_MUTANTS = [
    pytest.param(
        WPF,
        "        kernel.map_page(\n"
        "            process, vaddr, new_pfn, PteFlags.USER | "
        "PteFlags.WRITABLE\n"
        "        )",
        "        kernel.map_page(\n"
        "            process, vaddr, node_pfn, PteFlags.USER | "
        "PteFlags.WRITABLE\n"
        "        )",
        "FLOW003-ip",
        id="wpf-cow-maps-stale-node-instead-of-fresh-frame",
    ),
    pytest.param(
        WPF,
        "        new_pfn = self._alloc_unmerge_frame()\n",
        "        new_pfn = self._alloc_unmerge_frame()\n"
        "        _spare = self._alloc_unmerge_frame()\n",
        "FLOW003-ip",
        id="wpf-cow-allocates-spare-frame-never-consumed",
    ),
    pytest.param(
        WPF,
        "    def full_pass(self) -> None:",
        "    @escapes_frame\n    def full_pass(self) -> None:",
        "FLOW006",
        id="wpf-full-pass-false-escape-annotation",
    ),
    pytest.param(
        ARTIFACTS,
        "        return value.hex()",
        "        return hash(value)",
        "FLOW004-ip",
        id="artifacts-sanitize-hashes-bytes",
    ),
    pytest.param(
        ARTIFACTS,
        'allow_nan=False) + "\\n"',
        'allow_nan=False) + str(hash(value)) + "\\n"',
        "FLOW004-ip",
        id="artifacts-canonical-json-appends-salted-hash",
    ),
    pytest.param(
        TASK,
        "    result = EXPERIMENTS[spec.name].run(",
        "    EXPERIMENTS.pop(spec.name, None)\n"
        "    result = EXPERIMENTS[spec.name].run(",
        "FLOW005",
        id="task-worker-mutates-experiment-registry",
    ),
    pytest.param(
        VUSION,
        "        self.stats.merges += 1\n"
        "        self.stats.merge_frame_log.append(node.pfn)",
        "        self.stats.merges += 1\n"
        "        PteFlags.SCAN_EPOCH = vaddr\n"
        "        self.stats.merge_frame_log.append(node.pfn)",
        "FLOW005",
        id="vusion-merge-stamps-shared-class-attribute",
    ),
]


class TestInterproceduralMutantsAreCaught:
    @pytest.mark.parametrize("path, old, new, expected_rule", IP_MUTANTS)
    def test_mutant_is_flagged_by_intended_rule(
        self, path, old, new, expected_rule
    ):
        mutant = mutate(path, old, new)
        findings = ip_findings(path, mutant)
        hits = [f for f in findings if f.rule_id == expected_rule]
        assert hits, (
            f"mutant not caught; ip findings: "
            f"{[(f.rule_id, f.path, f.line, f.message) for f in findings]}"
        )
        if expected_rule == "FLOW005":
            # The finding must carry a call-chain witness from the
            # task entry point down to the offending write.
            assert any("execute_task" in f.message for f in hits)


class TestPristineTreeInterprocedural:
    def test_src_is_ip_clean(self):
        result = lint_project(base_sources(), rule_ids=list(IP_IDS))
        assert result.errors == []
        assert result.findings == [], render_findings(result)


class TestPristineTree:
    def test_src_is_flow_clean(self):
        result = lint_paths([str(SRC)], rule_ids=list(FLOW_IDS))
        assert result.errors == []
        assert result.findings == [], render_findings(result)

    def test_no_flow_suppressions_in_checked_packages(self):
        # The acceptance bar: the checked packages pass FLOW001-004 and
        # the interprocedural tier on their own merits, not via escape
        # hatches.
        pattern = re.compile(r"#\s*simlint:\s*disable=[^\n]*(FLOW\d+|all)")
        offenders = []
        for package in ("core", "fusion", "mem", "runner"):
            for path in sorted((SRC / "repro" / package).rglob("*.py")):
                for lineno, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), start=1
                ):
                    if pattern.search(line):
                        offenders.append(f"{path}:{lineno}: {line.strip()}")
        assert offenders == []
