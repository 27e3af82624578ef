"""Outside-in span tracer for the simulator's layers.

The tracer wraps public methods of each layer's classes from outside
the program (no file under ``src/`` knows it exists).  Every wrapped
call is a span; the tracer keeps, per span name, the call count, the
total duration and the *self* time (duration minus the time covered by
child spans).  Coarse spans (boots, retirements, daemon ticks, idle
steps, samples, the shard fold) are also kept whole -- name, start,
end and parent -- so they can be written out for inspection.

Hot leaves that the program already counts (tree comparisons, digest
cache hits, incremental replays) are read from those counters instead
of being wrapped.
"""

from __future__ import annotations

import time

_clock = time.perf_counter_ns

#: (layer-qualified span name, owner path, attribute, keep whole spans)
#: Owner paths are resolved lazily so importing this module does not
#: import the simulator.
LAYER_SPANS = (
    ("harness.run", "repro.harness.fleet:FleetDriver", "run", True),
    ("harness.boot", "repro.harness.scenario:Scenario", "boot", True),
    ("harness.retire", "repro.harness.scenario:Scenario", "retire", True),
    ("harness.sample", "repro.harness.fleet:FleetDriver", "_sample", True),
    ("kernel.idle", "repro.kernel.kernel:Kernel", "idle", True),
    ("kernel.access", "repro.kernel.kernel:Kernel", "access", False),
    ("kernel.map_page", "repro.kernel.kernel:Kernel", "map_page", False),
    ("kernel.unmap_page", "repro.kernel.kernel:Kernel", "unmap_page", False),
    ("fusion.ksm.scan_tick", "repro.fusion.ksm:Ksm", "scan_tick", False),
    ("fusion.tree.search", "repro.fusion.rbtree:RedBlackTree", "search", False),
    ("fusion.tree.insert", "repro.fusion.rbtree:RedBlackTree", "insert", False),
    ("fusion.tree.remove", "repro.fusion.rbtree:RedBlackTree", "remove", False),
    ("fusion.tree.search", "repro.fusion.avl:AvlTree", "search", False),
    ("fusion.tree.insert", "repro.fusion.avl:AvlTree", "insert", False),
    ("fusion.tree.remove", "repro.fusion.avl:AvlTree", "remove", False),
    ("core.vusion.scan_tick", "repro.core.vusion:Vusion", "scan_tick", False),
    ("core.vusion.handle_reserved_fault", "repro.core.vusion:Vusion",
     "handle_reserved_fault", False),
    ("mmu.walk", "repro.mmu.page_table:PageTable", "walk", False),
    ("mmu.map_page", "repro.mmu.page_table:PageTable", "map_page", False),
    ("mmu.unmap", "repro.mmu.page_table:PageTable", "unmap", False),
    ("mem.physmem.read", "repro.mem.physmem:PhysicalMemory", "read", False),
    ("mem.physmem.write", "repro.mem.physmem:PhysicalMemory", "write", False),
    ("mem.physmem.copy", "repro.mem.physmem:PhysicalMemory", "copy", False),
    ("mem.physmem.merge_key", "repro.mem.physmem:PhysicalMemory",
     "merge_key", False),
    ("mem.buddy.alloc", "repro.mem.buddy:BuddyAllocator", "alloc", False),
    ("mem.buddy.free", "repro.mem.buddy:BuddyAllocator", "free", False),
    ("mem.random_pool.alloc", "repro.core.random_pool:RandomFramePool",
     "alloc", False),
    ("mem.random_pool.free", "repro.core.random_pool:RandomFramePool",
     "free", False),
    ("mem.shard.export", "repro.fusion.base:FusionEngine", "shard_export",
     False),
    ("mem.shard.resolve_exchange", "repro.mem.shard", "resolve_exchange",
     False),
    ("mem.shard.verify_exchange", "repro.mem.shard", "verify_exchange", False),
    ("harness.combine", "repro.harness.shardfleet", "combine_shard_results",
     True),
    ("runner.pool", "repro.runner.shardpool:ShardPool", "run", True),
)

#: Batch scan-kernel primitives, all booked to one ``mem.scankernel`` span.
SCAN_KERNEL_METHODS = (
    "pfn_batch", "is_zero_frame", "zero_frames", "group_by_content",
    "dirty_intersection", "any_fused", "generation_snapshot",
    "changed_since", "digest_sweep", "refcount_sum",
)

#: The tree-search span, which also counts searches that found a node
#: (under SEARCH_HITS) for ``fusion.tree_hit_ratio``.
SEARCH_SPAN = "fusion.tree.search"
SEARCH_HITS = "fusion.tree.search.hits"


def resolve(path: str):
    """``"pkg.mod:Class"`` -> the class; ``"pkg.mod"`` -> the module."""
    import importlib

    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Span bookkeeping plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: Child-time accumulators of the open spans; slot 0 collects
        #: the duration of top-level spans (time covered by any span).
        self.stack: list[int] = [0]
        #: span name -> [calls, total ns, self ns]
        self.stats: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {SEARCH_HITS: 0}
        #: Whole coarse spans: (name, start ns, end ns, parent index).
        self.spans: list[tuple[str, int, int, int]] = []
        self._open: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- state ----------------------------------------------------------
    def reset(self) -> None:
        """Zero every accumulator in place (wrappers hold references)."""
        self.stack[:] = [0]
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        for name in self.counts:
            self.counts[name] = 0
        self.spans.clear()
        self._open[:] = [-1]

    def snapshot(self) -> dict:
        return {
            "covered_ns": self.stack[0],
            "stats": {name: list(stat) for name, stat in self.stats.items()},
            "counts": dict(self.counts),
            "spans": list(self.spans),
        }

    @staticmethod
    def merge(snapshots: list[dict]) -> dict:
        """Sum several processes' counters (whole spans stay per process)."""
        merged = {"covered_ns": 0, "stats": {}, "counts": {}}
        for snap in snapshots:
            merged["covered_ns"] += snap["covered_ns"]
            for name, stat in snap["stats"].items():
                into = merged["stats"].setdefault(name, [0, 0, 0])
                for index in range(3):
                    into[index] += stat[index]
            for name, count in snap["counts"].items():
                merged["counts"][name] = merged["counts"].get(name, 0) + count
        return merged

    # -- wrappers -------------------------------------------------------
    def _stat(self, name: str) -> list[int]:
        return self.stats.setdefault(name, [0, 0, 0])

    def span(self, fn, name: str, keep: bool = False):
        """Return ``fn`` wrapped as span ``name``."""
        stat = self._stat(name)
        stack = self.stack
        counts = self.counts
        spans = self.spans
        opened = self._open

        if keep:
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append((name, 0, 0, opened[-1]))
                opened.append(index)
                stack.append(0)
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = _clock()
                    duration = end - start
                    child = stack.pop()
                    opened.pop()
                    spans[index] = (name, start, end, spans[index][3])
                    stat[0] += 1
                    stat[1] += duration
                    stat[2] += duration - child
                    stack[-1] += duration
        elif name == SEARCH_SPAN:
            def traced(*args, **kwargs):
                stack.append(0)
                start = _clock()
                try:
                    found = fn(*args, **kwargs)
                finally:
                    duration = _clock() - start
                    child = stack.pop()
                    stat[0] += 1
                    stat[1] += duration
                    stat[2] += duration - child
                    stack[-1] += duration
                if found is not None:
                    counts[SEARCH_HITS] += 1
                return found
        else:
            def traced(*args, **kwargs):
                stack.append(0)
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = _clock() - start
                    child = stack.pop()
                    stat[0] += 1
                    stat[1] += duration
                    stat[2] += duration - child
                    stack[-1] += duration
        traced.__wrapped__ = fn
        return traced

    def _daemon_run(self, fn):
        """``Daemon.run`` as one kept span per daemon name."""
        wrapped: dict[str, object] = {}

        def traced(daemon, now):
            inner = wrapped.get(daemon.name)
            if inner is None:
                inner = wrapped[daemon.name] = self.span(
                    fn, f"kernel.daemon.{daemon.name}", keep=True)
            return inner(daemon, now)

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every layer boundary; undone by :meth:`uninstall`."""
        for name, path, attribute, keep in LAYER_SPANS:
            owner = resolve(path)
            self._patch(owner, attribute,
                        self.span(getattr(owner, attribute), name, keep))
        from repro.kernel.daemons import Daemon
        from repro.mem.scankernel import BatchScanKernel

        self._patch(Daemon, "run", self._daemon_run(Daemon.run))
        for attribute in SCAN_KERNEL_METHODS:
            function = getattr(BatchScanKernel, attribute)
            self._patch(BatchScanKernel, attribute,
                        self.span(function, "mem.scankernel"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
