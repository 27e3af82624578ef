"""Batch scan primitives over physical memory's content column.

Fusion engines spend their scan passes asking the same few questions
about many frames at once: "which of these are zero?", "which hold
equal content?", "which changed since I last looked?".  Asked one
frame at a time through :class:`~repro.mem.physmem.PhysicalMemory`,
every answer costs a Python method call; at fleet scale (256k+
frames) that interpreter overhead dwarfs the simulation itself.  This
module turns the questions into batch primitives over the cid column:

* **zero-page sweep** — :meth:`~ScalarScanKernel.zero_frames` /
  :meth:`~ScalarScanKernel.is_zero_frame`: a frame is zero iff its
  content id is :data:`~repro.mem.arena.ZERO_ID` (canonical contents
  strip trailing zero bytes, so the zero page is the empty payload);
* **duplicate-cid candidate grouping** —
  :meth:`~ScalarScanKernel.group_by_content`: partition a candidate
  batch by content identity, preserving first-encounter order exactly
  like the scalar ``merge_key`` loop it replaces;
* **dirty-set intersection** —
  :meth:`~ScalarScanKernel.dirty_intersection` /
  :meth:`~ScalarScanKernel.any_fused`: intersect a drained dirty view
  with a candidate list or the fusion-pinned set;
* **generation-delta filtering** —
  :meth:`~ScalarScanKernel.generation_snapshot` /
  :meth:`~ScalarScanKernel.changed_since`: keep only the frames whose
  mutation generation advanced past a snapshot;
* **digest sweep** — :meth:`~ScalarScanKernel.digest_sweep`: the batch
  fingerprint lookup behind ``PhysicalMemory.digests_many``;
* **refcount reduction** — :meth:`~ScalarScanKernel.refcount_sum`: the
  sharing-pair accounting sum behind every engine's ``saved_frames``.

:class:`BatchScanKernel` is the kernel every ``PhysicalMemory`` builds.
It is vectorized over zero-copy views of the cid / generation /
refcount columns: NumPy when installed (the ``repro[fast]`` extra), a
pure ``array``-module fallback otherwise.  The columns are fixed-size
``array("q")`` buffers that never reallocate, so the NumPy views
(``numpy.frombuffer``) stay live for the machine's lifetime.

:class:`ScalarScanKernel` is the reference: per-frame loops through the
public ``PhysicalMemory`` API.  The batch kernel inherits it and
delegates every content-reading primitive to it while a FrameSan
sanitizer is attached, so ``on_read`` hooks fire exactly as the scalar
loops fire them.  It is also the test oracle: simulated clocks,
ledgers, artifacts and sanitizer audits are byte-identical with a
``ScalarScanKernel`` swapped in for ``physmem.scan_kernel``.
``tests/test_scan_kernel_differential.py`` runs all five fusion
engines in lockstep under both to prove it,
``tests/test_scan_kernel_props.py`` pins the NumPy and array-fallback
implementations against each other element-for-element, and the
mutation meta-test plants boundary bugs in this file and checks the
suites catch each one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.mem.arena import ZERO_ID
from repro.mem.content import is_zero

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.physmem import PhysicalMemory

# NumPy is an optional accelerator (`pip install repro[fast]`); the
# guard keeps the module import-safe — and deterministic, hence
# simlint-clean — on hosts without it, where the pure array-module
# fallback serves every batch primitive.
try:  # pragma: no cover - exercised by the no-NumPy CI leg
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    _np = None
    HAVE_NUMPY = False

class ScalarScanKernel:
    """Reference scan kernel: per-frame loops over the public API.

    Every primitive is the obvious scalar loop; the batch kernel must
    be indistinguishable from this class through any observable
    (results, stats accounting, raised errors, sanitizer hook
    sequences).
    """

    name = "scalar"

    def __init__(self, physmem: "PhysicalMemory") -> None:
        self.physmem = physmem

    @property
    def backend(self) -> str:
        """The implementation serving batch primitives right now."""
        return "scalar"

    def pfn_batch(self, pfns: Sequence[int]) -> Sequence[int]:
        """A reusable batch handle for ``pfns``.

        Monitors running several primitives over one frame set per scan
        pass convert (and bounds-validate, on the vectorized kernel)
        the set once instead of per primitive.  The handle is a plain
        sequence either way, so it can also be passed straight back to
        any primitive of either kernel.
        """
        return pfns if isinstance(pfns, list) else list(pfns)

    # ------------------------------------------------------------------
    # Zero-page sweep
    # ------------------------------------------------------------------
    def is_zero_frame(self, pfn: int) -> bool:
        """Whether frame ``pfn`` holds the (canonical) zero page.

        Counts as a content read for the sanitizer, exactly like the
        ``is_zero(read(pfn))`` probe it replaces in engine scan loops.
        """
        return is_zero(self.physmem.read(pfn))

    def zero_frames(self, pfns: Sequence[int]) -> list[int]:
        """The subset of ``pfns`` holding the zero page, order kept."""
        physmem = self.physmem
        return [pfn for pfn in pfns if is_zero(physmem.read(pfn))]

    # ------------------------------------------------------------------
    # Duplicate-content candidate grouping
    # ------------------------------------------------------------------
    def group_by_content(self, pfns: Sequence[int]) -> dict[object, list[int]]:
        """Partition ``pfns`` (as indices) by content identity.

        Returns ``{merge_key: [index, ...]}`` where indices point into
        ``pfns``; groups appear in first-encounter order and indices
        ascend within each group — the exact partition (and order) of
        the classic ``candidates.setdefault(merge_key(pfn), ...)``
        scan loop, so engines can bucket candidates through one call.
        """
        physmem = self.physmem
        groups: dict[object, list[int]] = {}
        for index, pfn in enumerate(pfns):
            key = physmem.merge_key(pfn)
            members = groups.get(key)
            if members is None:
                groups[key] = [index]
            else:
                members.append(index)
        return groups

    # ------------------------------------------------------------------
    # Dirty-set intersection
    # ------------------------------------------------------------------
    def dirty_intersection(
        self, pfns: Sequence[int], dirty: Iterable[int]
    ) -> list[int]:
        """The subset of ``pfns`` present in ``dirty``, order kept."""
        members = dirty if isinstance(dirty, (set, frozenset)) else set(dirty)
        return [pfn for pfn in pfns if pfn in members]

    def any_fused(self, pfns: Iterable[int]) -> bool:
        """Whether any frame in ``pfns`` is fusion-pinned.

        The dirty-audit primitive: engines intersect a drained dirty
        view with the pinned set to detect stable-tree content
        mutations (the one hazard per-memo generation gates miss).
        """
        is_fused = self.physmem.is_fused
        return any(is_fused(pfn) for pfn in pfns)

    # ------------------------------------------------------------------
    # Generation-delta filtering
    # ------------------------------------------------------------------
    def generation_snapshot(self, pfns: Sequence[int]) -> list[int]:
        """Current mutation generations of ``pfns``, in order."""
        generation = self.physmem.generation
        return [generation(pfn) for pfn in pfns]

    def changed_since(
        self, pfns: Sequence[int], snapshot: Sequence[int]
    ) -> list[int]:
        """Frames whose generation differs from a prior snapshot.

        ``snapshot`` must be parallel to ``pfns`` (one recorded
        generation per frame, e.g. from :meth:`generation_snapshot`).
        """
        if len(pfns) != len(snapshot):
            raise ValueError(
                f"snapshot length {len(snapshot)} != pfns length {len(pfns)}"
            )
        generation = self.physmem.generation
        return [
            pfn
            for pfn, recorded in zip(pfns, snapshot)
            if generation(pfn) != recorded
        ]

    # ------------------------------------------------------------------
    # Digest sweep
    # ------------------------------------------------------------------
    def digest_sweep(self, pfns: Sequence[int]) -> list[int]:
        """Digests for many frames in one pass.

        Behaviourally ``[physmem.digest(pfn) for pfn in pfns]``;
        duplicate content ids in the batch collapse to a single cache
        probe each, with hit/miss stats matching the per-frame path
        exactly.
        """
        physmem = self.physmem
        fingerprints = physmem.fingerprints
        if not fingerprints.enabled:
            return [physmem.digest(pfn) for pfn in pfns]
        arena = physmem.arena
        cids = physmem._cids
        num_frames = physmem.num_frames
        stats = fingerprints.stats
        by_cid: dict[int, int] = {}
        lookup = by_cid.get
        out: list[int] = []
        append = out.append
        hits = misses = 0
        for pfn in pfns:
            if not 0 <= pfn < num_frames:
                physmem.check_pfn(pfn)
            value = lookup(cid := cids[pfn])
            if value is None:
                cached = arena.peek_digest(cid)
                if cached is not None:
                    hits += 1
                    value = cached
                else:
                    misses += 1
                    value = arena.digest(cid)
                by_cid[cid] = value
            else:
                hits += 1
            append(value)
        stats.digest_hits += hits
        stats.digest_misses += misses
        return out

    # ------------------------------------------------------------------
    # Refcount reduction
    # ------------------------------------------------------------------
    def refcount_sum(self, pfns: Iterable[int]) -> int:
        """Sum of the reference counts of ``pfns``.

        The sharing-pair accounting reduction: engines report
        ``pages_sharing`` as ``refcount_sum(stable_pfns) - len(...)``,
        and fleet monitors call that per sample.
        """
        refcount = self.physmem.refcount
        return sum(refcount(pfn) for pfn in pfns)


class BatchScanKernel(ScalarScanKernel):
    """Vectorized scan kernel over the content column.

    Content-reading primitives delegate to the scalar loops whenever a
    sanitizer is attached, so FrameSan's per-access hooks fire
    identically.  Pure-accounting primitives (generations, digests,
    refcounts) never fire sanitizer hooks and stay vectorized even
    under FrameSan.
    """

    name = "batch"

    def __init__(
        self, physmem: "PhysicalMemory", use_numpy: bool | None = None
    ) -> None:
        super().__init__(physmem)
        if use_numpy is None:
            use_numpy = HAVE_NUMPY
        elif use_numpy and not HAVE_NUMPY:
            raise RuntimeError(
                "BatchScanKernel(use_numpy=True) requires NumPy; install "
                "the repro[fast] extra"
            )
        self._cids = physmem._cids
        self._np = _np if use_numpy else None
        # Lazy zero-copy NumPy views; the underlying array("q") columns
        # are allocated once per machine and never resized, so a
        # frombuffer view stays valid for the machine's lifetime.
        self._cid_view = None
        self._gen_view = None
        self._ref_view = None

    @property
    def backend(self) -> str:
        return "numpy" if self._np is not None else "array"

    # ------------------------------------------------------------------
    # Column views and validation
    # ------------------------------------------------------------------
    def _cid_column(self):
        view = self._cid_view
        if view is None:
            view = self._np.frombuffer(self._cids, dtype=self._np.int64)
            self._cid_view = view
        return view

    def _gen_column(self):
        view = self._gen_view
        if view is None:
            view = self._np.frombuffer(
                self.physmem.fingerprints._generations, dtype=self._np.int64
            )
            self._gen_view = view
        return view

    def _ref_column(self):
        view = self._ref_view
        if view is None:
            view = self._np.frombuffer(
                self.physmem._refcount, dtype=self._np.int64
            )
            self._ref_view = view
        return view

    def pfn_batch(self, pfns: Sequence[int]) -> Sequence[int]:
        if self._np is None:
            return super().pfn_batch(pfns)
        return self._pfn_array(pfns)

    def _pfn_array(self, pfns):
        """``pfns`` as a validated int64 ndarray (bounds-checked)."""
        np = self._np
        if isinstance(pfns, np.ndarray):
            # A pfn_batch handle coming back around: dtype is already
            # int64 (asarray is then a no-op) and bounds were checked
            # at handle creation; re-checking is a cheap C reduction.
            arr = np.asarray(pfns, dtype=np.int64)
        elif isinstance(pfns, range):
            # Whole-memory sweeps and cursor windows arrive as ranges;
            # arange skips the per-element list conversion entirely.
            arr = np.arange(pfns.start, pfns.stop, pfns.step, dtype=np.int64)
        else:
            if not isinstance(pfns, (list, tuple)):
                pfns = list(pfns)
            arr = np.asarray(pfns, dtype=np.int64)
        if arr.size and (
            int(arr.min()) < 0 or int(arr.max()) >= self.physmem.num_frames
        ):
            for pfn in pfns:
                self.physmem.check_pfn(pfn)
        return arr

    def _unique_inverse(self, cids):
        """Sorted unique cids plus per-element indices into them.

        Equivalent to ``np.unique(cids, return_inverse=True)``, but
        content ids are dense (the arena hands them out sequentially),
        so for fleet-sized batches a counting pass beats the sort.
        Sparse id spaces keep the np.unique path.
        """
        np = self._np
        max_cid = int(cids.max())
        if max_cid <= 4 * cids.size + 1024:
            seen = np.zeros(max_cid + 1, dtype=bool)
            seen[cids] = True
            unique = np.flatnonzero(seen)
            table = np.empty(max_cid + 1, dtype=np.int64)
            table[unique] = np.arange(unique.size)
            return unique, table[cids]
        unique, inverse = np.unique(cids, return_inverse=True)
        return unique, inverse

    def _reads_are_scalar(self) -> bool:
        """Content-reading primitives take the scalar path under a
        sanitizer (hook parity)."""
        return self.physmem.sanitizer is not None

    # ------------------------------------------------------------------
    # Zero-page sweep
    # ------------------------------------------------------------------
    def is_zero_frame(self, pfn: int) -> bool:
        if self._reads_are_scalar():
            return super().is_zero_frame(pfn)
        self.physmem.check_pfn(pfn)
        return self._cids[pfn] == ZERO_ID

    def zero_frames(self, pfns: Sequence[int]) -> list[int]:
        if self._reads_are_scalar():
            return super().zero_frames(pfns)
        if self._np is not None:
            arr = self._pfn_array(pfns)
            mask = self._cid_column()[arr] == ZERO_ID
            return arr[mask].tolist()
        cids = self._cids
        num_frames = self.physmem.num_frames
        check = self.physmem.check_pfn
        out: list[int] = []
        for pfn in pfns:
            if not 0 <= pfn < num_frames:
                check(pfn)
            if cids[pfn] == ZERO_ID:
                out.append(pfn)
        return out

    # ------------------------------------------------------------------
    # Duplicate-content candidate grouping
    # ------------------------------------------------------------------
    def group_by_content(self, pfns: Sequence[int]) -> dict[object, list[int]]:
        if self._reads_are_scalar():
            return super().group_by_content(pfns)
        if self._np is None:
            cids = self._cids
            num_frames = self.physmem.num_frames
            check = self.physmem.check_pfn
            groups: dict[object, list[int]] = {}
            for index, pfn in enumerate(pfns):
                if not 0 <= pfn < num_frames:
                    check(pfn)
                key = cids[pfn]
                members = groups.get(key)
                if members is None:
                    groups[key] = [index]
                else:
                    members.append(index)
            return groups
        np = self._np
        arr = self._pfn_array(pfns)
        if arr.size == 0:
            return {}
        cids = self._cid_column()[arr]
        unique, inverse = self._unique_inverse(cids)
        # Stable argsort groups indices by cid while keeping them
        # ascending inside each group, so members[0] is the group's
        # first encounter; sorting the buckets by it restores the
        # scalar loop's insertion order.
        order = np.argsort(inverse, kind="stable")
        counts = np.bincount(inverse, minlength=unique.size)
        buckets: list[tuple[int, int, list[int]]] = []
        start = 0
        for cid, count in zip(unique.tolist(), counts.tolist()):
            members = order[start:start + count].tolist()
            start += count
            buckets.append((members[0], cid, members))
        buckets.sort()
        return {cid: members for _first, cid, members in buckets}

    # ------------------------------------------------------------------
    # Dirty-set intersection
    # ------------------------------------------------------------------
    def dirty_intersection(
        self, pfns: Sequence[int], dirty: Iterable[int]
    ) -> list[int]:
        if self._np is None:
            return super().dirty_intersection(pfns, dirty)
        if not isinstance(pfns, (list, tuple)):
            pfns = list(pfns)
        members = list(dirty) if not isinstance(dirty, (list, tuple)) else dirty
        if not pfns or not members:
            return []
        np = self._np
        arr = np.asarray(pfns, dtype=np.int64)
        mask = np.isin(arr, np.asarray(members, dtype=np.int64))
        return arr[mask].tolist()

    def any_fused(self, pfns: Iterable[int]) -> bool:
        # Set disjointness runs in C on both backends; the pinned set
        # is PhysicalMemory's own index, so this stays exact.
        return not self.physmem._fusion_pinned.isdisjoint(pfns)

    # ------------------------------------------------------------------
    # Generation-delta filtering
    # ------------------------------------------------------------------
    def generation_snapshot(self, pfns: Sequence[int]) -> list[int]:
        if self._np is None:
            return super().generation_snapshot(pfns)
        return self._gen_column()[self._pfn_array(pfns)].tolist()

    def changed_since(
        self, pfns: Sequence[int], snapshot: Sequence[int]
    ) -> list[int]:
        if self._np is None:
            return super().changed_since(pfns, snapshot)
        if len(pfns) != len(snapshot):
            raise ValueError(
                f"snapshot length {len(snapshot)} != pfns length {len(pfns)}"
            )
        np = self._np
        arr = self._pfn_array(pfns)
        recorded = np.asarray(
            snapshot if isinstance(snapshot, (list, tuple)) else list(snapshot),
            dtype=np.int64,
        )
        return arr[self._gen_column()[arr] != recorded].tolist()

    # ------------------------------------------------------------------
    # Digest sweep
    # ------------------------------------------------------------------
    def digest_sweep(self, pfns: Sequence[int]) -> list[int]:
        fingerprints = self.physmem.fingerprints
        if self._np is None or not fingerprints.enabled:
            return super().digest_sweep(pfns)
        arena = self.physmem.arena
        np = self._np
        arr = self._pfn_array(pfns)
        if arr.size == 0:
            return []
        cids = self._cid_column()[arr]
        unique, inverse = self._unique_inverse(cids)
        # One arena probe per *unique* content; a cid whose digest was
        # never cached counts as exactly one miss for the whole batch
        # and the remaining occurrences as hits — the same totals the
        # scalar sweep's first-occurrence bookkeeping produces.
        values = np.empty(unique.size, dtype=np.uint64)
        peek = arena.peek_digest
        compute = arena.digest
        misses = 0
        for uidx, cid in enumerate(unique.tolist()):
            cached = peek(cid)
            if cached is None:
                misses += 1
                cached = compute(cid)
            values[uidx] = cached
        stats = fingerprints.stats
        stats.digest_hits += len(arr) - misses
        stats.digest_misses += misses
        # .tolist() materializes Python ints: digests are unsigned
        # 64-bit values and downstream sums must stay arbitrary
        # precision, not wrap at 2**64.
        return values[inverse].tolist()

    # ------------------------------------------------------------------
    # Refcount reduction
    # ------------------------------------------------------------------
    def refcount_sum(self, pfns: Iterable[int]) -> int:
        if self._np is None:
            return super().refcount_sum(pfns)
        arr = self._pfn_array(pfns)
        return int(self._ref_column()[arr].sum())
