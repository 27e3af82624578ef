"""Physical frame store: contents, reference counts, types and rmap.

This is the simulator's ground truth for what each physical frame
holds.  Fusion engines, the fault handler and the Rowhammer model all
manipulate frames through this object, which lets the test suite assert
the paper's key invariants (a merge only ever fuses equal contents; a
bit flip in a shared frame is visible to *every* mapper; refcounts
match the number of mappings).

Two interchangeable content backends exist:

* the **columnar** store (default): an ``array``-backed column of
  content ids into a hash-consed :class:`~repro.mem.arena.ContentArena`
  — one canonical payload per unique content, O(1) frame copies
  (retain/release an id, no bytes move) and one digest per unique
  payload;
* the **legacy** store: one ``bytes`` object per frame, kept as the
  differential reference implementation.

Both expose identical semantics through this class; the lockstep suite
in ``tests/test_store_differential.py`` proves simulated time, merge
behaviour and runner artifacts are byte-identical either way.  Select a
backend per machine via ``MachineSpec.frame_store`` or globally via the
``REPRO_FRAME_STORE`` environment variable.

On top of the content column sit O(1) accounting structures — a
``frames_in_use`` counter and a frame-type histogram maintained in
:meth:`set_frame_type`, plus a sorted-pfn cache behind
:meth:`mapped_frames` invalidated only when the rmap's key set changes
— so per-sample metrics cost is independent of machine size.

Batch queries over many frames (zero sweeps, duplicate grouping,
digest sweeps) go through the pluggable scan kernel exposed as
:attr:`PhysicalMemory.scan_kernel` — see :mod:`repro.mem.scankernel`
— selected per machine via ``MachineSpec.scan_kernel`` or globally
via ``REPRO_SCAN_KERNEL``.
"""

from __future__ import annotations

import enum
import os
from array import array
from typing import Iterator

from repro.errors import InvalidFrameError
from repro.mem.arena import ContentArena, ZERO_ID
from repro.mem.content import PageContent, ZERO_PAGE, flip_bit
from repro.mem.fingerprint import DirtyFrameView, FingerprintCache
from repro.mem.scankernel import default_scan_kernel, make_scan_kernel
from repro.params import PAGE_SIZE

#: Environment override for the default content backend.
FRAME_STORE_ENV = "REPRO_FRAME_STORE"

#: Recognised backend names.
FRAME_STORES = ("columnar", "legacy")


def default_frame_store() -> str:
    """The process-wide default backend (env override or columnar)."""
    value = os.environ.get(FRAME_STORE_ENV, "").strip().lower()
    return value if value in FRAME_STORES else "columnar"


class FrameType(enum.Enum):
    """Classification of a frame's current use.

    Mirrors the page-type breakdown of the paper's Table 3 ("page
    cache", "buddy", "kernel", "rest").  ``FREE`` frames live in the
    buddy allocator or in VUsion's random pool.
    """

    FREE = "free"
    ANON = "anon"
    PAGE_CACHE = "page_cache"
    KERNEL = "kernel"
    OTHER = "other"


class LegacyFrameStore:
    """One ``bytes`` payload per frame (the pre-arena representation)."""

    name = "legacy"
    arena: ContentArena | None = None

    def __init__(self, num_frames: int) -> None:
        self._contents: list[PageContent] = [ZERO_PAGE] * num_frames

    def get(self, pfn: int) -> PageContent:
        return self._contents[pfn]

    def set(self, pfn: int, content: PageContent) -> None:
        self._contents[pfn] = content

    def copy(self, src: int, dst: int) -> None:
        self._contents[dst] = self._contents[src]

    def merge_key(self, pfn: int) -> PageContent:
        return self._contents[pfn]

    def snapshot(self) -> list[PageContent]:
        return list(self._contents)


class ColumnarFrameStore:
    """An ``array`` column of content ids over a hash-consed arena.

    Each frame holds exactly one arena reference on its current content
    id — including FREE frames, which keep their last payload alive so
    diagnostic reads (:meth:`PhysicalMemory.peek_content`) and cached
    digests of freed frames behave exactly as in the legacy store.
    """

    name = "columnar"

    def __init__(self, num_frames: int) -> None:
        self.arena = ContentArena()
        self._cids = array("q", [ZERO_ID]) * num_frames
        self.arena._retain(ZERO_ID, num_frames)

    def get(self, pfn: int) -> PageContent:
        return self.arena.payload(self._cids[pfn])

    def set(self, pfn: int, content: PageContent) -> None:
        arena = self.arena
        cid = arena._intern(content)
        arena._release(self._cids[pfn])
        self._cids[pfn] = cid

    def copy(self, src: int, dst: int) -> None:
        arena = self.arena
        cid = self._cids[src]
        arena._retain(cid)
        arena._release(self._cids[dst])
        self._cids[dst] = cid

    def merge_key(self, pfn: int) -> int:
        return self._cids[pfn]

    def content_id(self, pfn: int) -> int:
        return self._cids[pfn]

    def snapshot(self) -> list[PageContent]:
        payload = self.arena.payload
        return [payload(cid) for cid in self._cids]


def _make_store(kind: str, num_frames: int):
    if kind == "columnar":
        return ColumnarFrameStore(num_frames)
    if kind == "legacy":
        return LegacyFrameStore(num_frames)
    raise ValueError(
        f"unknown frame store {kind!r}; expected one of {FRAME_STORES}"
    )


class PhysicalMemory:
    """All physical frames of the simulated machine.

    Frames are identified by frame number (pfn) in ``[0, num_frames)``.
    Contents are canonical :class:`~repro.mem.content.PageContent`
    payloads.  The reverse map records every ``(pid, vaddr)`` mapping of
    a frame, which is what WPF's per-process merge pass and the kernel's
    rmap-based unmapping walk.
    """

    def __init__(
        self,
        num_frames: int,
        fingerprint_enabled: bool = True,
        frame_store: str | None = None,
        scan_kernel: str | None = None,
    ) -> None:
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        self.num_frames = num_frames
        #: Content backend ("columnar" by default, "legacy" reference).
        self._backing = _make_store(frame_store or default_frame_store(), num_frames)
        #: The content arena behind the columnar store (None on legacy).
        self.arena: ContentArena | None = self._backing.arena
        #: A fixed-size signed-64 column (never reallocated) so the
        #: batch scan kernel can hold a zero-copy view over it.
        self._refcount = array("q", bytes(8 * num_frames))
        self._types: list[FrameType] = [FrameType.FREE] * num_frames
        self._rmap: dict[int, set[tuple[int, int]]] = {}
        #: Content version per frame, bumped on every mutation.  The
        #: Rowhammer engine uses it to model one-way charge leakage (a
        #: cell that already flipped cannot flip again until rewritten).
        self._versions: list[int] = [0] * num_frames
        #: Frames pinned by a fusion engine's stable tree (KSM-style).
        self._fusion_pinned: set[int] = set()
        #: O(1) accounting, maintained by :meth:`set_frame_type`.
        self._in_use = 0
        #: Keyed by ``FrameType._value_`` (a str): enum members hash
        #: through a Python-level ``Enum.__hash__``, strings in C.
        self._type_counts: dict[str, int] = {t._value_: 0 for t in FrameType}
        self._type_counts[FrameType.FREE._value_] = num_frames
        #: Sorted mapped-pfn snapshot; dropped when the rmap key set
        #: changes (entry appears/disappears), not on every rmap touch.
        self._mapped_cache: tuple[int, ...] | None = None
        #: Incremental content fingerprints; every mutation path below
        #: — including :meth:`corrupt_bit` — invalidates through it.
        self.fingerprints = FingerprintCache(
            num_frames, enabled=fingerprint_enabled, backing=self._backing
        )
        #: Optional FrameSan hooks (set by the kernel under
        #: ``REPRO_SANITIZE=1``); content accesses below consult it so
        #: use-after-free and CoW violations fault at the access site.
        self.sanitizer = None
        #: Batch scan primitives over the content column (zero sweep,
        #: duplicate grouping, dirty intersection, generation deltas —
        #: see :mod:`repro.mem.scankernel`).  Engines reach it through
        #: ``kernel.physmem.scan_kernel``; the flavour is another pure
        #: representation choice proven observation-identical by
        #: ``tests/test_scan_kernel_differential.py``.
        self.scan_kernel = make_scan_kernel(
            scan_kernel or default_scan_kernel(), self
        )

    @property
    def store_kind(self) -> str:
        """Name of the active content backend ("columnar" | "legacy")."""
        return self._backing.name

    @property
    def scan_kernel_kind(self) -> str:
        """Name of the active scan kernel ("batch" | "scalar")."""
        return self.scan_kernel.name

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def check_pfn(self, pfn: int) -> None:
        if not 0 <= pfn < self.num_frames:
            raise InvalidFrameError(f"pfn {pfn} outside [0, {self.num_frames})")

    # ------------------------------------------------------------------
    # Contents
    # ------------------------------------------------------------------
    def read(self, pfn: int) -> PageContent:
        """Return the content of frame ``pfn``."""
        self.check_pfn(pfn)
        if self.sanitizer is not None:
            self.sanitizer.on_read(pfn)
        return self._backing.get(pfn)

    def peek_content(self, pfn: int) -> PageContent:
        """Diagnostic read bypassing the sanitizer's UAF check.

        For tests and debugging tools that legitimately inspect freed
        frames (e.g. validating that a freed frame's cached digest is
        still exact) — the moral equivalent of reading /proc/kcore.
        Simulation code must use :meth:`read`.
        """
        self.check_pfn(pfn)
        return self._backing.get(pfn)

    def write(self, pfn: int, content: PageContent) -> None:
        """Overwrite frame ``pfn`` with canonical ``content``."""
        self.check_pfn(pfn)
        if len(content) > PAGE_SIZE:
            raise InvalidFrameError("content larger than a page")
        if self.sanitizer is not None:
            self.sanitizer.on_write(pfn)
        self._backing.set(pfn, content)
        self._versions[pfn] += 1
        self.fingerprints.note_mutation(pfn)

    def copy(self, src: int, dst: int) -> None:
        """Copy the full page content of ``src`` into ``dst``.

        On the columnar store this moves no bytes at all: ``dst`` simply
        retains ``src``'s content id.
        """
        self.check_pfn(src)
        self.check_pfn(dst)
        if self.sanitizer is not None:
            self.sanitizer.on_read(src)
            self.sanitizer.on_write(dst)
        self._backing.copy(src, dst)
        self._versions[dst] += 1
        self.fingerprints.note_mutation(dst)

    def corrupt_bit(self, pfn: int, byte_offset: int, bit: int) -> None:
        """Flip one bit of frame ``pfn`` in place (Rowhammer).

        This bypasses permissions, refcounts and copy-on-write — which
        is exactly why Flip Feng Shui works against page fusion.
        """
        self.check_pfn(pfn)
        # Rowhammer also bypasses the sanitizer's UAF/CoW checks on
        # purpose: a flip landing in a shared or freed frame is the
        # physical phenomenon under study, not a simulator bug.  On the
        # columnar store the flip re-interns: the frame moves to the
        # flipped payload's id, other holders of the old id are
        # untouched (a flip is per *frame*, not per content).
        backing = self._backing
        backing.set(pfn, flip_bit(backing.get(pfn), byte_offset, bit))
        # Rowhammer bypasses permissions and copy-on-write, but not the
        # fingerprint cache: a flipped frame must never keep its stale
        # digest (``_versions`` stays untouched on purpose — see below).
        self.fingerprints.note_mutation(pfn)

    def version(self, pfn: int) -> int:
        """Recharge epoch of frame ``pfn``.

        Bumped by CPU stores (:meth:`write`/:meth:`copy`) but *not* by
        :meth:`corrupt_bit`: a Rowhammer-discharged cell stays
        discharged until the frame is rewritten.
        """
        self.check_pfn(pfn)
        return self._versions[pfn]

    def contents_snapshot(self) -> list[PageContent]:
        """All frame contents by pfn (diagnostics/differential tests)."""
        return self._backing.snapshot()

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------
    def merge_key(self, pfn: int) -> object:
        """A hashable key equal iff two frames hold equal content.

        Columnar store: the integer content id (one dict probe groups a
        merge candidate in O(1) regardless of payload size).  Legacy
        store: the content bytes themselves.  Either way, bucketing by
        merge key partitions frames exactly like bucketing by content —
        in the same encounter order — so engines grouping candidates
        behave identically on both backends.  Counts as a content read
        for the sanitizer (use-after-free checks fire exactly as for
        :meth:`read`).
        """
        self.check_pfn(pfn)
        if self.sanitizer is not None:
            self.sanitizer.on_read(pfn)
        return self._backing.merge_key(pfn)

    def content_id(self, pfn: int) -> int | None:
        """The arena content id of ``pfn`` (None on the legacy store)."""
        self.check_pfn(pfn)
        if self.arena is None:
            return None
        return self._backing.content_id(pfn)

    def same_content(self, pfn: int, content: PageContent) -> bool:
        """Whether frame ``pfn`` currently holds exactly ``content``.

        The supported way for engines to re-validate a match (simlint's
        MEM002 flags raw ``read(pfn) == content`` comparisons in fusion
        hot paths).  On the columnar store interned payloads make the
        common case an object-identity check.
        """
        self.check_pfn(pfn)
        if self.sanitizer is not None:
            self.sanitizer.on_read(pfn)
        stored = self._backing.get(pfn)
        return stored is content or stored == content

    # ------------------------------------------------------------------
    # Content fingerprints
    # ------------------------------------------------------------------
    def digest(self, pfn: int) -> int:
        """64-bit content digest of ``pfn``, cached until invalidated.

        Always equals ``content_digest(read(pfn))``; with fingerprints
        disabled the hash is simply recomputed on every call.
        """
        self.check_pfn(pfn)
        return self.fingerprints.digest(pfn)

    def digests_many(self, pfns: list[int]) -> list[int]:
        """Digests for many frames in one pass.

        Behaviourally ``[digest(pfn) for pfn in pfns]``; on the
        columnar store duplicate content ids in the batch collapse to
        a single cache probe each (and under the batch scan kernel the
        column indexing itself is vectorized), with hit/miss stats
        matching the per-frame path exactly either way.
        """
        return self.scan_kernel.digest_sweep(pfns)

    def digest_table(self, pfns) -> list[tuple[int, int, int]]:
        """``(digest, canonical pfn, holders)`` rows for a shard export.

        Duplicate digests among ``pfns`` collapse to their minimal pfn
        with mapper counts (refcounts) summed — exactly the canonical
        form :meth:`repro.mem.shard.ShardContentTable.build` would
        produce, computed here in one :meth:`digests_many` sweep so the
        batch scan kernel vectorizes the digest pass.
        """
        ordered = sorted(set(pfns))
        rows: dict[int, tuple[int, int]] = {}
        for pfn, digest in zip(ordered, self.digests_many(ordered)):
            if digest in rows:
                prev_pfn, holders = rows[digest]
                rows[digest] = (prev_pfn, holders + self._refcount[pfn])
            else:
                rows[digest] = (pfn, self._refcount[pfn])
        return [(digest, pfn, holders)
                for digest, (pfn, holders) in sorted(rows.items())]

    def generation(self, pfn: int) -> int:
        """Mutation generation of ``pfn``.

        Unlike :meth:`version`, this is bumped by **every** mutation
        including :meth:`corrupt_bit` — engines use it to prove "page
        unchanged since last pass", and a Rowhammer flip is a change.
        """
        self.check_pfn(pfn)
        return self.fingerprints.generation(pfn)

    @property
    def mutation_epoch(self) -> int:
        """Global counter of frame mutations (any frame, any cause)."""
        return self.fingerprints.mutation_epoch

    def register_dirty_view(self, name: str) -> DirtyFrameView:
        """Register a drainable view of frames mutated from now on."""
        return self.fingerprints.register_view(name)

    # ------------------------------------------------------------------
    # Reference counting
    # ------------------------------------------------------------------
    def refcount(self, pfn: int) -> int:
        self.check_pfn(pfn)
        return self._refcount[pfn]

    def get_ref(self, pfn: int) -> None:
        """Increment the reference count of ``pfn``."""
        self.check_pfn(pfn)
        self._refcount[pfn] += 1

    def put_ref(self, pfn: int) -> int:
        """Decrement the reference count and return the new value."""
        self.check_pfn(pfn)
        if self._refcount[pfn] <= 0:
            raise InvalidFrameError(f"refcount underflow on pfn {pfn}")
        self._refcount[pfn] -= 1
        return self._refcount[pfn]

    # ------------------------------------------------------------------
    # Frame type bookkeeping (Table 3)
    # ------------------------------------------------------------------
    def frame_type(self, pfn: int) -> FrameType:
        self.check_pfn(pfn)
        return self._types[pfn]

    def set_frame_type(self, pfn: int, frame_type: FrameType) -> None:
        self.check_pfn(pfn)
        previous = self._types[pfn]
        if previous is frame_type:
            return
        self._types[pfn] = frame_type
        counts = self._type_counts
        counts[previous._value_] -= 1
        counts[frame_type._value_] += 1
        if previous is FrameType.FREE:
            self._in_use += 1
        elif frame_type is FrameType.FREE:
            self._in_use -= 1

    # ------------------------------------------------------------------
    # Fusion pinning (stable-tree membership)
    # ------------------------------------------------------------------
    def pin_fused(self, pfn: int) -> None:
        self.check_pfn(pfn)
        self._fusion_pinned.add(pfn)

    def unpin_fused(self, pfn: int) -> None:
        self._fusion_pinned.discard(pfn)

    def is_fused(self, pfn: int) -> bool:
        return pfn in self._fusion_pinned

    # ------------------------------------------------------------------
    # Reverse map
    # ------------------------------------------------------------------
    def rmap_add(self, pfn: int, pid: int, vaddr: int) -> None:
        """Record that process ``pid`` maps ``pfn`` at ``vaddr``."""
        self.check_pfn(pfn)
        entries = self._rmap.get(pfn)
        if entries is None:
            self._rmap[pfn] = {(pid, vaddr)}
            self._mapped_cache = None
        else:
            entries.add((pid, vaddr))

    def rmap_remove(self, pfn: int, pid: int, vaddr: int) -> None:
        entries = self._rmap.get(pfn)
        if not entries or (pid, vaddr) not in entries:
            raise InvalidFrameError(
                f"rmap entry ({pid}, {vaddr:#x}) missing for pfn {pfn}"
            )
        entries.remove((pid, vaddr))
        if not entries:
            del self._rmap[pfn]
            self._mapped_cache = None

    def rmap(self, pfn: int) -> frozenset[tuple[int, int]]:
        """Return the set of ``(pid, vaddr)`` mappings of ``pfn``."""
        self.check_pfn(pfn)
        return frozenset(self._rmap.get(pfn, ()))

    def mapped_frames(self) -> Iterator[int]:
        """Iterate over frames with at least one virtual mapping.

        Sorted ascending.  Columnar store: the sorted snapshot is
        cached and only rebuilt after a frame gains its first or loses
        its last mapping, so steady-state calls are O(1) + iteration.
        Legacy store: the historical per-call re-sort, preserved so the
        end-to-end gate compares the old cost model faithfully.
        """
        if self._backing.arena is None:
            return iter(sorted(self._rmap))
        cached = self._mapped_cache
        if cached is None:
            cached = tuple(sorted(self._rmap))
            self._mapped_cache = cached
        return iter(cached)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    # The counters are maintained for both backends, but the legacy
    # accessors recount per call — that O(num_frames)-per-sample cost
    # *is* the pre-columnar behaviour the legacy store exists to
    # preserve (and ``tests/test_store_accounting.py`` proves counter
    # and recount never disagree).

    def frames_in_use(self) -> int:
        """Number of frames not currently free (columnar: O(1))."""
        if self._backing.arena is None:
            free = FrameType.FREE
            return sum(1 for t in self._types if t is not free)
        return self._in_use

    def type_histogram(self) -> dict[FrameType, int]:
        """Frame counts per :class:`FrameType` (columnar: O(#types))."""
        if self._backing.arena is None:
            histogram = {frame_type: 0 for frame_type in FrameType}
            for frame_type in self._types:
                histogram[frame_type] += 1
            return histogram
        counts = self._type_counts
        return {frame_type: counts[frame_type._value_] for frame_type in FrameType}
