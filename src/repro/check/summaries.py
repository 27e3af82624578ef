"""Bottom-up function summaries for the interprocedural FLOW rules.

Each function gets a :class:`LocalSummary` — facts provable from its
own body, computed with the same CFG (:mod:`repro.check.cfg`) and
worklist solver (:mod:`repro.check.lattice`) the intraprocedural rules
use:

* **escape**: does any path return a *fresh* frame handle (one
  obtained from the allocator sources, or acquired via
  ``alloc_specific(pfn)``) without first transferring ownership?
* **taint transfer**: may the return value derive from the wall clock,
  the global RNG or builtin ``hash()``?
* **charge-effect**: does the body update the merge ledger?
* **consumed / sink parameters**: which parameters does the body hand
  to a frame consumer, or flow into an artifact write?
* **mutated-global footprint**: writes to module-level state — a
  ``global`` rebind, an attribute/subscript store or a mutating method
  call whose receiver is a module-level binding or an imported
  ``repro.*`` object (FLOW005's raw material).

:func:`summarize_project` then closes the local summaries over the
call graph: Tarjan SCC condensation, reverse-topological order, and a
fixpoint *inside* each SCC (recursion), yielding one
:class:`TransitiveSummary` per function with caller→callee witness
chains for every derived fact.  Only **precise** call edges propagate
summaries — union-by-name edges are reachability-grade, not
evidence-grade.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.check.callgraph import (
    _CONTAINER_READ_METHODS,
    CallGraph,
    CallSite,
    ModuleFacts,
)
from repro.check.cfg import build_cfg
from repro.check.flow_rules import (
    _FRAME_CONSUMERS,
    _FRAME_SOURCES,
    _ARTIFACT_SINK_CALLEES,
    _call_arguments,
    _callee,
    _calls_in,
    _is_charge_node,
    _is_taint_source,
    _names_in,
    _sole_name_assign,
)
from repro.check.lattice import MutableState, apply_block, solve_forward

_FRESH = "fresh"
_TAINT = "taint"
_PARAM_PREFIX = "param:"
_CALL_PREFIX = "call@"

#: Calls that take *ownership* of a frame handle.  Narrower than
#: ``_FRAME_CONSUMERS``: bookkeeping calls (``set_frame_type``,
#: ``write``, refcount reads) touch a frame without owning it, so they
#: must not kill freshness when deciding whether a function *returns*
#: a fresh handle — otherwise ``alloc_specific(pfn); set_frame_type(
#: pfn, ...); return pfn`` would wrongly look escape-free.
_OWNERSHIP_SINKS = frozenset({
    "map_page", "remap_page", "free", "free_frame", "queue_free",
    "_insert_free", "release_after_unmap", "put_ref", "pin_fused",
    "append", "appendleft", "insert", "add", "push",
})

#: Receiver methods that mutate their object in place.
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "update", "pop", "popleft", "popitem",
    "setdefault", "extend", "insert", "remove", "discard", "clear",
    "sort", "reverse", "push",
})


@dataclass(frozen=True)
class GlobalRead:
    """One container-style read of module-level / imported shared state.

    Only *registry-shaped* uses are recorded (subscript, ``.get``/
    ``.items``/``.keys``/``.values``, ``in`` tests, iteration) of names
    that are either the module's own mutable module-level bindings or
    ``repro.*`` imports — RACE003's raw material.  ``attr`` carries the
    first attribute component for ``module.NAME``-style reads.
    """

    name: str           #: the base name being read
    attr: str | None    #: first attribute component, for module reads
    lineno: int
    col: int

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name, "attr": self.attr,
            "line": self.lineno, "col": self.col,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GlobalRead":
        return cls(
            name=data["name"], attr=data["attr"],
            lineno=data["line"], col=data["col"],
        )


@dataclass(frozen=True)
class GlobalWrite:
    """One mutation of module-level / imported shared state."""

    name: str    #: the module-level binding being mutated
    kind: str    #: "rebind" | "attribute" | "subscript" | "call" | "delete"
    detail: str  #: human-readable description of the write
    lineno: int
    col: int

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name, "kind": self.kind, "detail": self.detail,
            "line": self.lineno, "col": self.col,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GlobalWrite":
        return cls(
            name=data["name"], kind=data["kind"], detail=data["detail"],
            lineno=data["line"], col=data["col"],
        )


@dataclass
class LocalSummary:
    """Per-function facts provable from the body alone."""

    qualname: str  #: in-module qualname
    name: str
    params: tuple[str, ...]
    decorators: tuple[str, ...]
    returns_fresh_direct: bool = False
    returns_taint_direct: bool = False
    #: Locations of calls whose result may be returned — resolved
    #: against the call graph in the transitive phase.
    returned_call_locs: tuple[tuple[int, int], ...] = ()
    returned_params: tuple[str, ...] = ()
    #: Any ``return <expr>`` or ``yield``; False means the function
    #: provably hands nothing out (the no-escape proof FLOW006 uses).
    returns_value: bool = False
    consumed_params_direct: tuple[str, ...] = ()
    sink_params_direct: tuple[str, ...] = ()
    charges_direct: bool = False
    global_writes: tuple[GlobalWrite, ...] = ()
    global_reads: tuple[GlobalRead, ...] = ()
    #: Some return hands back a set-derived value whose iteration order
    #: is nondeterministic (``set(...)``, ``tuple(set(...))``, ...).
    returns_unordered_direct: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "qualname": self.qualname, "name": self.name,
            "params": list(self.params), "decorators": list(self.decorators),
            "fresh": self.returns_fresh_direct,
            "taint": self.returns_taint_direct,
            "ret_calls": [list(loc) for loc in self.returned_call_locs],
            "ret_params": list(self.returned_params),
            "returns_value": self.returns_value,
            "consumed": list(self.consumed_params_direct),
            "sinks": list(self.sink_params_direct),
            "charges": self.charges_direct,
            "writes": [w.to_dict() for w in self.global_writes],
            "reads": [r.to_dict() for r in self.global_reads],
            "unordered": self.returns_unordered_direct,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LocalSummary":
        return cls(
            qualname=data["qualname"], name=data["name"],
            params=tuple(data["params"]),
            decorators=tuple(data["decorators"]),
            returns_fresh_direct=data["fresh"],
            returns_taint_direct=data["taint"],
            returned_call_locs=tuple(
                (loc[0], loc[1]) for loc in data["ret_calls"]
            ),
            returned_params=tuple(data["ret_params"]),
            returns_value=data["returns_value"],
            consumed_params_direct=tuple(data["consumed"]),
            sink_params_direct=tuple(data["sinks"]),
            charges_direct=data["charges"],
            global_writes=tuple(
                GlobalWrite.from_dict(w) for w in data["writes"]
            ),
            global_reads=tuple(
                GlobalRead.from_dict(r) for r in data["reads"]
            ),
            returns_unordered_direct=data["unordered"],
        )


# ---------------------------------------------------------------------------
# Local summary extraction (one CFG + forward dataflow per function)
# ---------------------------------------------------------------------------
class _ReturnRecord:
    """Mutable collector threaded through the diagnostics pass."""

    def __init__(self) -> None:
        self.fresh = False
        self.taint = False
        self.call_locs: set[tuple[int, int]] = set()
        self.params: set[str] = set()
        self.returns_value = False


def _value_facts(value: ast.expr, state: MutableState) -> set[str]:
    """Facts the RHS expression carries into its target."""
    facts: set[str] = set()
    for name in _names_in(value):
        facts |= set(state.facts(name))
    for call in _calls_in(value):
        if _is_taint_source(call):
            facts.add(_TAINT)
        if _callee(call) is not None:
            facts.add(f"{_CALL_PREFIX}{call.lineno}:{call.col_offset}")
    if isinstance(value, ast.Call) and _callee(value) in _FRAME_SOURCES:
        facts.add(_FRESH)
    return facts


def _record_return(
    value: ast.expr, state: MutableState, record: _ReturnRecord
) -> None:
    record.returns_value = True
    facts = _value_facts(value, state)
    if _FRESH in facts:
        record.fresh = True
    if _TAINT in facts:
        record.taint = True
    for fact in facts:
        if fact.startswith(_CALL_PREFIX):
            line, _, col = fact[len(_CALL_PREFIX):].partition(":")
            record.call_locs.add((int(line), int(col)))
        elif fact.startswith(_PARAM_PREFIX):
            record.params.add(fact[len(_PARAM_PREFIX):])


def _make_summary_transfer(record: _ReturnRecord | None):
    def transfer(node: ast.AST, state: MutableState) -> None:
        if record is not None:
            if isinstance(node, ast.Return) and node.value is not None:
                _record_return(node.value, state, record)
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                    record.returns_value = True
        # Ownership transfers kill freshness (a mapped/stored handle is
        # no longer the function's to leak via return).
        for sub in _calls_in(node):
            if _callee(sub) in _OWNERSHIP_SINKS:
                for arg in _call_arguments(sub):
                    for name in _names_in(arg):
                        state.discard(name, _FRESH)
            elif _callee(sub) == "alloc_specific":
                # alloc_specific(pfn) *acquires* its argument: the pfn
                # becomes a live handle this function now owns.
                if sub.args and isinstance(sub.args[0], ast.Name):
                    state.add(sub.args[0].id, _FRESH)
        if isinstance(node, ast.Assign):
            stored = any(
                isinstance(target, (ast.Attribute, ast.Subscript))
                for target in node.targets
            )
            if stored:
                for name in _names_in(node.value):
                    state.discard(name, _FRESH)
        assigned = _sole_name_assign(node)
        if assigned is not None:
            state.replace(assigned[0], *_value_facts(assigned[1], state))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if node.value is not None and isinstance(node.target, ast.Name):
                for fact in _value_facts(node.value, state):
                    state.add(node.target.id, fact)

    return transfer


def _local_bound_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    bound: set[str] = set()
    declared_global: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not func:
                bound.add(node.name)
    return bound - declared_global


def _base_name(node: ast.AST) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _global_writes(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    facts: ModuleFacts,
) -> tuple[GlobalWrite, ...]:
    """Writes to module-level / imported-``repro`` shared state."""
    candidates = set(facts.module_names)
    for local, target in facts.imports.items():
        if target == "repro" or target.startswith("repro."):
            candidates.add(local)
    declared_global: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    shadowed = _local_bound_names(func) | set(
        a.arg for a in (
            *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs
        )
    )
    writes: list[GlobalWrite] = []

    def record(name: str, kind: str, detail: str, node: ast.AST) -> None:
        writes.append(GlobalWrite(
            name=name, kind=kind, detail=detail,
            lineno=getattr(node, "lineno", func.lineno),
            col=getattr(node, "col_offset", 0),
        ))

    def is_candidate(name: str | None) -> bool:
        if name is None:
            return False
        if name in declared_global:
            return True
        return name in candidates and name not in shadowed

    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in declared_global:
                        record(
                            target.id, "rebind",
                            f"rebinds module global '{target.id}'", node,
                        )
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    base = _base_name(target)
                    if is_candidate(base):
                        kind = (
                            "attribute" if isinstance(target, ast.Attribute)
                            else "subscript"
                        )
                        record(
                            base, kind,  # type: ignore[arg-type]
                            f"{kind} store into module-level "
                            f"'{base}'", node,
                        )
        elif isinstance(node, ast.Call):
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr in _MUTATOR_METHODS
            ):
                base = _base_name(func_expr.value)
                if is_candidate(base):
                    record(
                        base, "call",
                        f".{func_expr.attr}() mutates module-level "
                        f"'{base}'", node,
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    base = _base_name(target)
                    if is_candidate(base):
                        record(
                            base, "delete",
                            f"deletes from module-level '{base}'", node,
                        )
    return tuple(writes)


def _global_reads(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    facts: ModuleFacts,
) -> tuple[GlobalRead, ...]:
    """Container-style reads of module-level / imported shared state.

    The mirror of :func:`_global_writes`: where that records mutations
    (FLOW005's raw material), this records *reads* of the same shared
    names — subscripts, ``.get``/``.items``-style lookups, ``in`` tests
    and iteration.  RACE003 resolves them against the owning module's
    mutable bindings to find fork-inherited state a worker consumes
    without a declared ownership contract.
    """
    candidates = set(facts.mutable_module_names)
    import_targets: dict[str, str] = {}
    for local, target in facts.imports.items():
        if target == "repro" or target.startswith("repro."):
            candidates.add(local)
            import_targets[local] = target
    shadowed = _local_bound_names(func) | set(
        a.arg for a in (
            *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs
        )
    )
    reads: list[GlobalRead] = []
    seen: set[tuple[str, str | None, int, int]] = set()

    def record(base: ast.AST, node: ast.AST) -> None:
        attr: str | None = None
        if isinstance(base, ast.Attribute) and isinstance(
            base.value, ast.Name
        ):
            attr = base.attr
            base = base.value
        if not isinstance(base, ast.Name):
            return
        name = base.id
        if name in ("self", "cls"):
            return
        if name not in candidates or name in shadowed:
            return
        key = (
            name, attr,
            getattr(node, "lineno", func.lineno),
            getattr(node, "col_offset", 0),
        )
        if key in seen:
            return
        seen.add(key)
        reads.append(GlobalRead(
            name=name, attr=attr, lineno=key[2], col=key[3],
        ))

    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, ast.Load
        ):
            record(node.value, node)
        elif isinstance(node, ast.Call):
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr in _CONTAINER_READ_METHODS
            ):
                record(func_expr.value, node)
        elif isinstance(node, ast.Compare):
            if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                for comparator in node.comparators:
                    record(comparator, node)
        elif isinstance(node, ast.For):
            record(node.iter, node)
        elif isinstance(node, ast.comprehension):
            record(node.iter, node.iter)
    return tuple(reads)


def _unordered_expr(expr: ast.expr) -> bool:
    """Does the expression evaluate to a set-ordered iterable?

    Conservative: only shapes whose iteration order is *provably* tied
    to hash order — set displays/comprehensions, ``set(...)``/
    ``frozenset(...)`` calls, and ``list``/``tuple`` wrappers around
    them.  ``sorted(...)`` launders the order by construction.
    """
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in ("set", "frozenset"):
            return True
        if expr.func.id == "sorted":
            return False
        if expr.func.id in ("list", "tuple") and expr.args:
            return _unordered_expr(expr.args[0])
    return False


def _returns_unordered(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> bool:
    """Does some return/yield hand back a set-ordered value?

    A one-level name chase covers the common ``frozen = tuple(set(x));
    return frozen`` shape without a full dataflow pass.
    """
    unordered_names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and _unordered_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    unordered_names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _unordered_expr(node.value) and isinstance(
                node.target, ast.Name
            ):
                unordered_names.add(node.target.id)

    def carries(value: ast.expr) -> bool:
        if _unordered_expr(value):
            return True
        if isinstance(value, ast.Name):
            return value.id in unordered_names
        if isinstance(value, ast.Call) and isinstance(
            value.func, ast.Name
        ):
            if value.func.id in ("list", "tuple") and value.args:
                return carries(value.args[0])
        return False

    for node in ast.walk(func):
        if isinstance(node, ast.Return) and node.value is not None:
            if carries(node.value):
                return True
        elif isinstance(node, ast.Yield) and node.value is not None:
            if carries(node.value):
                return True
    return False


def summarize_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    facts: ModuleFacts,
) -> LocalSummary:
    """Compute one function's :class:`LocalSummary`."""
    cfg = build_cfg(func)
    params = tuple(
        a.arg for a in (
            *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs
        )
    )
    initial = {p: frozenset({f"{_PARAM_PREFIX}{p}"}) for p in params}
    pre_states = solve_forward(cfg, _make_summary_transfer(None), initial)
    record = _ReturnRecord()
    reporting = _make_summary_transfer(record)
    for block_id, state in pre_states.items():
        apply_block(cfg.block(block_id), state, reporting)
    consumed: set[str] = set()
    sinks: set[str] = set()
    charges = False
    for node in ast.walk(func):
        if _is_charge_node(node) and not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            charges = True
        if isinstance(node, ast.Call):
            callee = _callee(node)
            if callee in _FRAME_CONSUMERS:
                for arg in _call_arguments(node):
                    consumed |= _names_in(arg) & set(params)
            if callee in _ARTIFACT_SINK_CALLEES:
                for arg in _call_arguments(node):
                    sinks |= _names_in(arg) & set(params)
    func_facts = facts.functions.get(qualname)
    decorators = func_facts.decorators if func_facts is not None else ()
    return LocalSummary(
        qualname=qualname,
        name=func.name,
        params=params,
        decorators=tuple(decorators),
        returns_fresh_direct=record.fresh,
        returns_taint_direct=record.taint,
        returned_call_locs=tuple(sorted(record.call_locs)),
        returned_params=tuple(sorted(record.params)),
        returns_value=record.returns_value,
        consumed_params_direct=tuple(sorted(consumed)),
        sink_params_direct=tuple(sorted(sinks)),
        charges_direct=charges,
        global_writes=_global_writes(func, facts),
        global_reads=_global_reads(func, facts),
        returns_unordered_direct=_returns_unordered(func),
    )


# ---------------------------------------------------------------------------
# Transitive closure over the call graph (SCC fixpoint)
# ---------------------------------------------------------------------------
@dataclass
class TransitiveSummary:
    """A function's summary closed over its (precise) callees."""

    qualname: str  #: fully qualified
    escapes: bool = False
    escape_chain: tuple[str, ...] = ()
    #: Escape derived purely from the bodies (no annotation trust) —
    #: what ``--check-annotations`` compares the decoration against.
    inferred_escapes: bool = False
    annotated_escapes: bool = False
    #: True iff the body provably hands nothing out (no valued return,
    #: no yield) — the proof that contradicts a stray @escapes_frame.
    provably_no_escape: bool = False
    returns_taint: bool = False
    taint_chain: tuple[str, ...] = ()
    charges: bool = False
    consumed_params: dict[str, tuple[str, ...]] = field(default_factory=dict)
    sink_params: dict[str, tuple[str, ...]] = field(default_factory=dict)
    global_writes: tuple[GlobalWrite, ...] = ()
    #: May the return value iterate in set/hash order?  Propagated
    #: through returned calls exactly like taint (RACE004's material).
    returns_unordered: bool = False
    unordered_chain: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, object]:
        """Canonical serialization (the cache's dependency digests)."""
        return {
            "qualname": self.qualname,
            "escapes": self.escapes,
            "escape_chain": list(self.escape_chain),
            "inferred_escapes": self.inferred_escapes,
            "annotated_escapes": self.annotated_escapes,
            "provably_no_escape": self.provably_no_escape,
            "returns_taint": self.returns_taint,
            "taint_chain": list(self.taint_chain),
            "charges": self.charges,
            "consumed_params": {
                p: list(c) for p, c in sorted(self.consumed_params.items())
            },
            "sink_params": {
                p: list(c) for p, c in sorted(self.sink_params.items())
            },
            "global_writes": [w.to_dict() for w in self.global_writes],
            "returns_unordered": self.returns_unordered,
            "unordered_chain": list(self.unordered_chain),
        }


def _tarjan_sccs(
    nodes: list[str], successors: dict[str, set[str]]
) -> list[list[str]]:
    """Tarjan's SCCs, iterative, in reverse-topological emit order."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = sorted(successors.get(node, ()))
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index:
                    work[-1] = (node, position + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs


def _param_position(
    callee_summary: LocalSummary, arg_index: int, attribute_call: bool
) -> str | None:
    """Map a positional argument index to the callee's parameter name."""
    params = callee_summary.params
    offset = 1 if attribute_call and params and params[0] in ("self", "cls") else 0
    position = arg_index + offset
    return params[position] if position < len(params) else None


def summarize_project(
    graph: CallGraph,
    locals_by_full: dict[str, LocalSummary],
) -> dict[str, TransitiveSummary]:
    """Close local summaries over the call graph (SCC fixpoint)."""
    successors: dict[str, set[str]] = {}
    for caller, edges in graph.edges.items():
        successors[caller] = {
            edge.callee for edge in edges
            if edge.precise and edge.callee in locals_by_full
        }
    result: dict[str, TransitiveSummary] = {}
    for full, local in locals_by_full.items():
        result[full] = TransitiveSummary(
            qualname=full,
            escapes=local.returns_fresh_direct,
            escape_chain=(full,) if local.returns_fresh_direct else (),
            inferred_escapes=local.returns_fresh_direct,
            annotated_escapes="escapes_frame" in local.decorators,
            provably_no_escape=not local.returns_value,
            returns_taint=local.returns_taint_direct,
            taint_chain=(full,) if local.returns_taint_direct else (),
            charges=local.charges_direct,
            consumed_params={
                p: (full,) for p in local.consumed_params_direct
            },
            sink_params={p: (full,) for p in local.sink_params_direct},
            global_writes=local.global_writes,
            returns_unordered=local.returns_unordered_direct,
            unordered_chain=(
                (full,) if local.returns_unordered_direct else ()
            ),
        )
        # A trusted annotation counts as an escape contract for callers
        # (FLOW006 separately checks it is not *contradicted*).
        if result[full].annotated_escapes and not result[full].escapes:
            result[full].escapes = True
            result[full].escape_chain = (full,)

    call_sites = _call_sites_by_function(graph)

    def update(full: str) -> bool:
        local = locals_by_full[full]
        summary = result[full]
        changed = False
        # Escape and taint through returned calls.
        for line, col in local.returned_call_locs:
            for target in graph.resolve_call(full, line, col):
                target_summary = result.get(target)
                if target_summary is None:
                    continue
                if target_summary.escapes and not summary.escapes:
                    summary.escapes = True
                    summary.escape_chain = (
                        full, *target_summary.escape_chain
                    )
                    changed = True
                if (
                    target_summary.inferred_escapes
                    and not summary.inferred_escapes
                ):
                    summary.inferred_escapes = True
                    changed = True
                if target_summary.returns_taint and not summary.returns_taint:
                    summary.returns_taint = True
                    summary.taint_chain = (full, *target_summary.taint_chain)
                    changed = True
                if (
                    target_summary.returns_unordered
                    and not summary.returns_unordered
                ):
                    summary.returns_unordered = True
                    summary.unordered_chain = (
                        full, *target_summary.unordered_chain
                    )
                    changed = True
        # Charge-effect through any precise callee.
        if not summary.charges:
            for callee in successors.get(full, ()):  # noqa: B007
                if result[callee].charges:
                    summary.charges = True
                    changed = True
                    break
        # Parameter consumption / sinks through forwarded arguments.
        for site, attribute_call in call_sites.get(full, ()):  # noqa: B007
            targets = graph.resolve_call(full, site.lineno, site.col)
            for target in targets:
                target_summary = result.get(target)
                target_local = locals_by_full.get(target)
                if target_summary is None or target_local is None:
                    continue
                for arg_index, arg_name in enumerate(site.arg_names):
                    if arg_name is None or arg_name not in local.params:
                        continue
                    callee_param = _param_position(
                        target_local, arg_index, attribute_call
                    )
                    if callee_param is None:
                        continue
                    if (
                        callee_param in target_summary.consumed_params
                        and arg_name not in summary.consumed_params
                    ):
                        summary.consumed_params[arg_name] = (
                            full,
                            *target_summary.consumed_params[callee_param],
                        )
                        changed = True
                    if (
                        callee_param in target_summary.sink_params
                        and arg_name not in summary.sink_params
                    ):
                        summary.sink_params[arg_name] = (
                            full, *target_summary.sink_params[callee_param],
                        )
                        changed = True
        return changed

    for scc in _tarjan_sccs(sorted(locals_by_full), successors):
        # Reverse-topological emission: callees of this SCC are final.
        # Iterate inside the SCC until its members stop changing
        # (mutual recursion converges: all facts are monotone).
        changed = True
        while changed:
            changed = False
            for full in scc:
                if update(full):
                    changed = True
    return result


def _call_sites_by_function(
    graph: CallGraph,
) -> dict[str, list[tuple[CallSite, bool]]]:
    """Index call sites (with arg names) by fully-qualified caller."""
    sites: dict[str, list[tuple[CallSite, bool]]] = {}
    for facts in graph.modules.values():
        for site in facts.calls:
            if site.caller == "<module>" or not site.arg_names:
                continue
            full = f"{facts.module}.{site.caller}"
            sites.setdefault(full, []).append(
                (site, site.dotted is not None)
            )
    return sites
