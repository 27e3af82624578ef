"""simflow's flow-sensitive rules: the paper's path invariants.

Where :mod:`repro.check.rules` bans single constructs, the rules here
encode *protocols* — properties of call sequences along control-flow
paths, checked on the CFGs of :mod:`repro.check.cfg` with the solvers
of :mod:`repro.check.lattice`:

* **FLOW001** — the Shared ⊕ accessible-mapping discipline (VUsion's
  SB principle, PAPER.md §6): no path may give a shared frame an
  accessible (non-fused-flags) mapping, and no path may mark a frame
  shared while it still holds an accessible mapping.
* **FLOW002** — charge/ledger exception safety: every path that
  performs a merge/unmerge mutation (``map_page``/``unmap_page``/
  ``remap_page``) must reach a ledger update (stats counter, clock
  charge, event emit) before the normal exit — a dominator-or-finally
  check; explicit ``raise`` aborts are exempt, exception-swallowing
  handlers are not.
* **FLOW003** — frame-handle escape/leak: a pfn returned by a
  ``BuddyAllocator``/random-pool/``alloc_frame`` call must, on every
  path, be mapped, freed, stored or returned — the static twin of
  FrameSan's end-of-run leak audit.  ``@escapes_frame`` (see
  :mod:`repro.annotations`) marks allocator front-ends whose handles
  escape by contract.
* **FLOW004** — taint into artifacts: values derived from the wall
  clock, the global RNG or builtin ``hash()`` may not flow into
  artifact writes or out of ``execute_task`` / ``@artifact_boundary``
  functions — the flow-sensitive generalization of DET001/002/004 for
  the modules those rules exempt.

Rules are intraprocedural and deliberately tuned to this codebase's
idioms; the mutation meta-test (``tests/test_simflow_mutations.py``)
pins both directions — seeded bugs are caught, the pristine tree is
clean.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.check.cfg import FunctionCFG
from repro.check.lattice import (
    MutableState,
    State,
    apply_block,
    solve_forward,
    solve_must_reach,
)
from repro.check.rules import _dotted, _in_packages

if TYPE_CHECKING:  # pragma: no cover
    from repro.check.engine import LintContext

#: A report callback: (rule_id, node-with-location, message).
Report = Callable[[str, ast.AST, str], None]


@dataclass(frozen=True)
class FlowRule:
    """One flow-sensitive invariant, checked per function CFG."""

    id: str
    severity: str
    summary: str
    rationale: str
    checker: Callable[["LintContext", FunctionCFG], None]
    #: Predicate over the dotted module path, as for AST rules.
    applies_to: Callable[[str], bool] = field(default=lambda module: True)

    def applies(self, module: str) -> bool:
        return self.applies_to(module)


#: Registry of flow rules, id -> rule (insertion order is report order).
FLOW_RULES: dict[str, FlowRule] = {}


def register_flow(rule: FlowRule) -> FlowRule:
    if rule.id in FLOW_RULES:
        raise ValueError(f"duplicate flow rule id {rule.id}")
    FLOW_RULES[rule.id] = rule
    return rule


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
class _Pos:
    """A minimal location carrier for reports not tied to one node."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno: int, col_offset: int) -> None:
        self.lineno = lineno
        self.col_offset = col_offset


def _callee(call: ast.Call) -> str | None:
    """Last name component of the called expression."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def _call_arguments(call: ast.Call) -> list[ast.expr]:
    return [*call.args, *(keyword.value for keyword in call.keywords)]


def _names_in(node: ast.AST) -> set[str]:
    return {
        sub.id for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def _reporting_pass(
    cfg: FunctionCFG,
    pre_states: dict[int, dict[str, frozenset[str]]],
    transfer: Callable[[ast.AST, MutableState], None],
) -> None:
    """Re-run ``transfer`` (now reporting) over every reachable block."""
    for block_id, state in pre_states.items():
        apply_block(cfg.block(block_id), state, transfer)


# ----------------------------------------------------------------------
# FLOW001 — Shared ⊕ accessible-mapping discipline
# ----------------------------------------------------------------------
_ALLOC_CALLEES = frozenset({"alloc", "alloc_specific", "alloc_frame"})
#: Calls that install a mapping: ``map_page`` and the one-walk remap
#: (kernel ``remap_page``, page-table ``remap``) take the same operands.
_MAP_CALLEES = frozenset({"map_page", "remap_page", "remap"})
_FUSED_FLAG_MARKERS = ("FUSED", "RESERVED", "fused")

#: Frame-state facts.
_PRIVATE = "private"
_SHARED = "shared"
_ACCESSIBLE = "accessible"


def _flags_are_fused(expr: ast.expr) -> bool:
    """True if a flags expression goes through the fused/reserved path.

    Matches the engine idioms: ``self._fused_flags`` (attribute or
    call), the ``FUSED_FLAGS*`` constants, and any inline combination
    naming ``PteFlags.FUSED`` / ``PteFlags.RESERVED``.
    """
    text = ast.unparse(expr)
    return any(marker in text for marker in _FUSED_FLAG_MARKERS)


def _map_page_operands(call: ast.Call) -> tuple[ast.expr, ast.expr] | None:
    """Extract ``(pfn, flags)`` from a mapping call, if recognizable.

    Handles both call shapes in the tree: the kernel facade
    ``map_page(process, vaddr, pfn, flags)`` and the page-table API
    ``map_page(base, pfn, flags)`` (likewise ``remap_page``/``remap``);
    ``flags`` may be a keyword.
    """
    if _callee(call) not in _MAP_CALLEES:
        return None
    keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg}
    args = call.args
    if "flags" in keywords and len(args) >= 2:
        return args[-1], keywords["flags"]
    if len(args) == 4:
        return args[2], args[3]
    if len(args) == 3:
        return args[1], args[2]
    return None


def _sole_name_assign(node: ast.AST) -> tuple[str, ast.expr] | None:
    """``x = <expr>`` with a single plain-name target, else None."""
    if (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    ):
        return node.targets[0].id, node.value
    return None


def _make_flow001_transfer(report: Report | None) -> Callable[[ast.AST, MutableState], None]:
    def transfer(node: ast.AST, state: MutableState) -> None:
        assigned = _sole_name_assign(node)
        if (
            assigned is not None
            and isinstance(assigned[1], ast.Call)
            and _callee(assigned[1]) in _ALLOC_CALLEES
        ):
            state.replace(assigned[0], _PRIVATE)
            return
        for call in _calls_in(node):
            callee = _callee(call)
            if callee == "pin_fused" and call.args and isinstance(call.args[0], ast.Name):
                var = call.args[0].id
                if state.has(var, _ACCESSIBLE) and report is not None:
                    report(
                        "FLOW001", call,
                        f"frame '{var}' is marked shared (pin_fused) while a "
                        "path still holds an accessible mapping for it; remap "
                        "through the fused-flags path before sharing",
                    )
                state.add(var, _SHARED)
            elif callee == "unpin_fused" and call.args and isinstance(call.args[0], ast.Name):
                state.discard(call.args[0].id, _SHARED)
            elif callee in _MAP_CALLEES:
                operands = _map_page_operands(call)
                if operands is None:
                    continue
                pfn_expr, flags_expr = operands
                fused = _flags_are_fused(flags_expr)
                if isinstance(pfn_expr, ast.Name):
                    var = pfn_expr.id
                    if not fused and state.has(var, _SHARED) and report is not None:
                        report(
                            "FLOW001", call,
                            f"path maps shared frame '{var}' with accessible "
                            f"(non-fused) flags {ast.unparse(flags_expr)!r} "
                            "without an intervening unshare/copy-on-access",
                        )
                    state.replace(var, _SHARED if fused else _ACCESSIBLE)
                elif (
                    isinstance(pfn_expr, ast.Attribute)
                    and pfn_expr.attr == "pfn"
                    and not fused
                    and report is not None
                ):
                    report(
                        "FLOW001", call,
                        f"stable-node frame {ast.unparse(pfn_expr)!r} mapped "
                        f"with accessible flags {ast.unparse(flags_expr)!r}; "
                        "shared frames may only be mapped through the "
                        "fused/reserved path (copy to a fresh frame first)",
                    )
        return

    return transfer


def _check_flow001(ctx: "LintContext", cfg: FunctionCFG) -> None:
    pre_states = solve_forward(cfg, _make_flow001_transfer(None))
    _reporting_pass(cfg, pre_states, _make_flow001_transfer(ctx.report))


register_flow(FlowRule(
    id="FLOW001",
    severity="error",
    summary="no path maps a shared frame accessible (S ⊕ F discipline)",
    rationale=(
        "VUsion's Same Behaviour guarantee is that a (fake-)merged page "
        "is Shared XOR accessibly-mapped: every share goes through the "
        "reserved-bit + cache-disable PTE path and every access takes "
        "the copy-on-access fault. One branch that maps a shared frame "
        "PRESENT/WRITABLE reopens the exact side channels (write timing, "
        "prefetch probing) the engine exists to close — and is invisible "
        "to line-based lint because each line looks fine in isolation."
    ),
    checker=_check_flow001,
    applies_to=_in_packages("repro.core", "repro.fusion", "repro.mmu"),
))


# ----------------------------------------------------------------------
# FLOW002 — charge/ledger exception safety
# ----------------------------------------------------------------------
_CHARGE_CALLEES = frozenset({"advance", "emit", "charge"})
_MERGE_OP_CALLEES = frozenset({"map_page", "unmap_page", "remap_page"})


def _is_charge_node(node: ast.AST) -> bool:
    """True if the node updates the merge ledger / simulated costs."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            callee = _callee(sub)
            if callee in _CHARGE_CALLEES:
                return True
            if callee == "append" and isinstance(sub.func, ast.Attribute):
                receiver = _dotted(sub.func.value)
                if receiver is not None and ("stats" in receiver or "log" in receiver):
                    return True
        elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Attribute):
            dotted = _dotted(sub.target)
            if dotted is not None and (dotted.startswith("self.") or "stats" in dotted):
                return True
    return False


def _check_flow002(ctx: "LintContext", cfg: FunctionCFG) -> None:
    reachable = cfg.reachable_ids()
    charged_after: dict[int, bool] | None = None  # computed lazily
    for block_id in sorted(reachable):
        block = cfg.block(block_id)
        for index, node in enumerate(block.nodes):
            merge_calls = [
                call for call in _calls_in(node)
                if _callee(call) in _MERGE_OP_CALLEES
            ]
            if not merge_calls:
                continue
            if _is_charge_node(node) or any(
                _is_charge_node(later) for later in block.nodes[index + 1:]
            ):
                continue
            if charged_after is None:
                charged_after = solve_must_reach(
                    cfg,
                    lambda candidate: any(
                        _is_charge_node(n) for n in candidate.nodes
                    ),
                )
            if charged_after[block_id]:
                continue
            for call in merge_calls:
                ctx.report(
                    "FLOW002", call,
                    f"a path from this {_callee(call)}() reaches the end of "
                    f"{cfg.name}() without charging the merge ledger (stats "
                    "counter, clock.advance or event emit); add the charge "
                    "on every exit path or in a finally block",
                )


register_flow(FlowRule(
    id="FLOW002",
    severity="error",
    summary="every merge/unmerge path charges the ledger before exit",
    rationale=(
        "The paper's accounting (merge charges, deferred-free dummies, "
        "cost model) only means anything if every map/unmap mutation is "
        "matched by its ledger update on *every* path — an early return "
        "or a swallowed exception that skips the charge silently skews "
        "saved-frames and timing results while all tests still pass. "
        "Explicit raise paths are deliberate aborts and are exempt."
    ),
    checker=_check_flow002,
    applies_to=_in_packages("repro.core", "repro.fusion"),
))


# ----------------------------------------------------------------------
# FLOW003 — frame-handle escape/leak
# ----------------------------------------------------------------------
_FRAME_SOURCES = frozenset({"alloc", "alloc_specific", "alloc_frame", "_pop_free"})
#: Calls that take ownership of (or register) a raw pfn argument.
_FRAME_CONSUMERS = frozenset({
    "map_page", "remap_page", "free", "free_frame", "queue_free", "write",
    "set_frame_type", "append", "appendleft", "insert", "add", "push",
    "pin_fused", "get_ref", "put_ref", "on_alloc", "on_free", "_insert_free",
    "release_after_unmap",
})
_FRESH_PREFIX = "fresh@"


def _fresh_fact(call: ast.Call) -> str:
    return f"{_FRESH_PREFIX}{call.lineno}:{call.col_offset}"


def _consumed_names(node: ast.AST) -> set[str]:
    """Names whose frame ownership this node transfers somewhere."""
    consumed: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _callee(sub) in _FRAME_CONSUMERS:
            for arg in _call_arguments(sub):
                consumed |= _names_in(arg)
        elif isinstance(sub, (ast.Return, ast.Yield, ast.YieldFrom)):
            if sub.value is not None:
                consumed |= _names_in(sub.value)
    if isinstance(node, ast.Assign):
        if any(
            isinstance(target, (ast.Attribute, ast.Subscript))
            for target in node.targets
        ):
            # Stored into an object or container: tracked elsewhere now.
            consumed |= _names_in(node.value)
        elif all(isinstance(target, ast.Name) for target in node.targets):
            # Plain aliasing (`head = pfn`) moves the handle.
            consumed |= _names_in(node.value)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.value is not None:
        consumed |= _names_in(node.value)
    return consumed


def _source_call_of(node: ast.AST) -> ast.Call | None:
    assigned = _sole_name_assign(node)
    if (
        assigned is not None
        and isinstance(assigned[1], ast.Call)
        and _callee(assigned[1]) in _FRAME_SOURCES
    ):
        return assigned[1]
    return None


def _make_flow003_transfer(report: Report | None) -> Callable[[ast.AST, MutableState], None]:
    def transfer(node: ast.AST, state: MutableState) -> None:
        for name in _consumed_names(node):
            state.clear(name)
        source = _source_call_of(node)
        if source is not None:
            assigned = _sole_name_assign(node)
            assert assigned is not None
            var = assigned[0]
            if report is not None and any(
                fact.startswith(_FRESH_PREFIX) for fact in state.facts(var)
            ):
                report(
                    "FLOW003", source,
                    f"frame handle '{var}' is re-allocated while a path "
                    "still holds its previous, unreleased frame",
                )
            state.replace(var, _fresh_fact(source))
            return
        # A bare alloc whose result is discarded leaks unconditionally
        # (alloc_specific exempt: its argument *is* the handle).
        if (
            report is not None
            and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and _callee(node.value) in (_FRAME_SOURCES - {"alloc_specific"})
        ):
            report(
                "FLOW003", node.value,
                "allocated frame handle is discarded (call result unused); "
                "the pfn can never be freed, mapped or stored",
            )
        # Plain reassignment drops a still-fresh handle.
        assigned = _sole_name_assign(node)
        if assigned is not None and report is not None:
            var, value = assigned
            if var not in _names_in(value) and any(
                fact.startswith(_FRESH_PREFIX) for fact in state.facts(var)
            ):
                report(
                    "FLOW003", node,
                    f"frame handle '{var}' is overwritten before the frame "
                    "is freed, mapped, stored or returned",
                )
        if assigned is not None and assigned[0] not in _names_in(assigned[1]):
            state.clear(assigned[0])

    return transfer


def _check_flow003(ctx: "LintContext", cfg: FunctionCFG) -> None:
    if "escapes_frame" in cfg.decorator_names():
        return
    pre_states = solve_forward(cfg, _make_flow003_transfer(None))
    _reporting_pass(cfg, pre_states, _make_flow003_transfer(ctx.report))
    # Any handle still fresh at an exit leaked on some path.
    for exit_id in (cfg.exit, cfg.raise_exit):
        for var, facts in sorted(pre_states.get(exit_id, {}).items()):
            for fact in sorted(facts):
                if not fact.startswith(_FRESH_PREFIX):
                    continue
                line, _, col = fact[len(_FRESH_PREFIX):].partition(":")
                where = "an explicit raise" if exit_id == cfg.raise_exit else "return"
                ctx.report(
                    "FLOW003", _Pos(int(line), int(col)),
                    f"frame handle '{var}' allocated here may reach "
                    f"{where} in {cfg.name}() without being freed, "
                    "mapped, stored or returned (frame leak)",
                )


register_flow(FlowRule(
    id="FLOW003",
    severity="error",
    summary="allocated frame handles are freed, stored or returned on every path",
    rationale=(
        "A pfn handed out by the buddy allocator, the random pool or "
        "kernel.alloc_frame is a capability: a path that drops it leaks "
        "the frame (shrinking the fusable pool and skewing saved-frames "
        "accounting) in a way FrameSan only catches at end of run, on "
        "runs that happen to execute that path. This is the static twin "
        "of FrameSan's leak audit. Allocator front-ends whose handles "
        "escape by contract carry @escapes_frame (repro.annotations)."
    ),
    checker=_check_flow003,
    applies_to=_in_packages("repro.core", "repro.fusion", "repro.mem"),
))


# ----------------------------------------------------------------------
# FLOW004 — taint into artifacts
# ----------------------------------------------------------------------
_TAINT_SOURCE_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4", "os.getpid",
})
_SEEDED_RNG_ATTRS = frozenset({"Random", "SystemRandom"})
_ARTIFACT_SINK_CALLEES = frozenset({
    "write_text", "write_bytes", "write_artifact", "write_artifacts", "dump",
})
_TAINTED = "tainted"


def _is_taint_source(call: ast.Call) -> bool:
    dotted = _dotted(call.func)
    if dotted in _TAINT_SOURCE_CALLS:
        return True
    if isinstance(call.func, ast.Name) and call.func.id == "hash":
        return True
    return (
        isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "random"
        and call.func.attr not in _SEEDED_RNG_ATTRS
    )


def _expr_tainted(expr: ast.AST, state: MutableState) -> bool:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name) and state.has(sub.id, _TAINTED):
            return True
        if isinstance(sub, ast.Call) and _is_taint_source(sub):
            return True
    return False


def _make_flow004_transfer(
    report: Report | None, returns_are_sinks: bool
) -> Callable[[ast.AST, MutableState], None]:
    def transfer(node: ast.AST, state: MutableState) -> None:
        if report is not None:
            for call in _calls_in(node):
                if _callee(call) not in _ARTIFACT_SINK_CALLEES:
                    continue
                for arg in _call_arguments(call):
                    if _expr_tainted(arg, state):
                        report(
                            "FLOW004", call,
                            "nondeterministic value (wall clock / global RNG "
                            "/ builtin hash) flows into an artifact write; "
                            "artifacts must be a pure function of "
                            "(spec, seed)",
                        )
                        break
            if (
                returns_are_sinks
                and isinstance(node, ast.Return)
                and node.value is not None
                and _expr_tainted(node.value, state)
            ):
                report(
                    "FLOW004", node,
                    "nondeterministic value (wall clock / global RNG / "
                    "builtin hash) is returned from an artifact-producing "
                    "function (execute_task / @artifact_boundary)",
                )
        if isinstance(node, ast.Assign):
            tainted = _expr_tainted(node.value, state)
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        if tainted:
                            state.add(name.id, _TAINTED)
                        else:
                            state.discard(name.id, _TAINTED)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if node.value is not None and _expr_tainted(node.value, state):
                target = node.target
                if isinstance(target, ast.Name):
                    state.add(target.id, _TAINTED)

    return transfer


def _check_flow004(ctx: "LintContext", cfg: FunctionCFG) -> None:
    returns_are_sinks = (
        cfg.name == "execute_task"
        or "artifact_boundary" in cfg.decorator_names()
    )
    pre_states = solve_forward(cfg, _make_flow004_transfer(None, returns_are_sinks))
    _reporting_pass(
        cfg, pre_states, _make_flow004_transfer(ctx.report, returns_are_sinks)
    )


register_flow(FlowRule(
    id="FLOW004",
    severity="error",
    summary="no wall-clock/RNG/hash() taint into artifacts or execute_task returns",
    rationale=(
        "The runner may read the host clock for scheduling — DET001 "
        "exempts it — but the byte-identical artifact contract means "
        "none of that nondeterminism may *flow* into anything persisted "
        "under results/ or returned from execute_task. This rule tracks "
        "the flow the line-based DET rules cannot: a timestamp computed "
        "three statements earlier reaching a write_text ten lines later."
    ),
    checker=_check_flow004,
    applies_to=_in_packages("repro.runner", "repro.harness", "repro.analysis"),
))
