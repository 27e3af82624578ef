"""Physical frame store: contents, reference counts, types and rmap.

This is the simulator's ground truth for what each physical frame
holds.  Fusion engines, the fault handler and the Rowhammer model all
manipulate frames through this object, which lets the test suite assert
the paper's key invariants (a merge only ever fuses equal contents; a
bit flip in a shared frame is visible to *every* mapper; refcounts
match the number of mappings).

Frame contents are columnar: an ``array``-backed column of content ids
into a hash-consed :class:`~repro.mem.arena.ContentArena` — one
canonical payload per unique content, O(1) frame copies (retain/release
an id, no bytes move) and one digest per unique payload.  The
representation must not show in any simulated observable:
``tests/test_store_differential.py`` runs it in lockstep against a
one-payload-per-frame model and holds engine runs and runner artifacts
to the digests pinned in ``tests/test_payload_digests.py``.

On top of the content column sit O(1) accounting structures — a
``frames_in_use`` counter and a frame-type histogram maintained in
:meth:`set_frame_type`, plus a sorted-pfn cache behind
:meth:`mapped_frames` invalidated only when the rmap's key set changes
— so per-sample metrics cost is independent of machine size.

Batch queries over many frames (zero sweeps, duplicate grouping,
digest sweeps) go through the :class:`~repro.mem.scankernel.BatchScanKernel`
exposed as :attr:`PhysicalMemory.scan_kernel`.
"""

from __future__ import annotations

import enum
from array import array
from typing import Iterator

from repro.errors import InvalidFrameError
from repro.mem.arena import ContentArena, ZERO_ID
from repro.mem.content import PageContent, flip_bit
from repro.mem.fingerprint import FingerprintCache
from repro.mem.scankernel import BatchScanKernel
from repro.params import PAGE_SIZE


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


class PhysicalMemory:
    """All physical frames of the simulated machine.

    Frames are identified by frame number (pfn) in ``[0, num_frames)``.
    Contents are canonical :class:`~repro.mem.content.PageContent`
    payloads.  The reverse map records every ``(pid, vaddr)`` mapping of
    a frame, which is what WPF's per-process merge pass and the kernel's
    rmap-based unmapping walk.
    """

    #: Name of the content representation (read by benchmark manifests).
    store_kind = "columnar"

    def __init__(self, num_frames: int, fingerprint_enabled: bool = True) -> None:
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        self.num_frames = num_frames
        #: The hash-consed payloads behind :attr:`_cids`.
        self.arena = ContentArena()
        #: One content id per frame.  Each frame holds exactly one arena
        #: reference on its current id — FREE frames included, which
        #: keep their last payload alive for diagnostic reads
        #: (:meth:`peek_content`) and cached digests.
        self._cids = array("q", [ZERO_ID]) * num_frames
        self.arena._retain(ZERO_ID, num_frames)
        #: ``_cids`` and ``_refcount`` are fixed-size signed-64 columns
        #: (never reallocated) so the batch scan kernel can hold
        #: zero-copy views over them.
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
        #: Content digests and change tracking; every mutation path
        #: below — including :meth:`corrupt_bit` — notes through it.
        self.fingerprints = FingerprintCache(
            self.arena, self._cids, enabled=fingerprint_enabled
        )
        #: Optional FrameSan hooks (set by the kernel under
        #: ``REPRO_SANITIZE=1``); content accesses below consult it so
        #: use-after-free and CoW violations fault at the access site.
        self.sanitizer = None
        #: Batch scan primitives over the content column (zero sweep,
        #: duplicate grouping, dirty intersection, generation deltas —
        #: see :mod:`repro.mem.scankernel`).  Engines reach it through
        #: ``kernel.physmem.scan_kernel``.
        self.scan_kernel = BatchScanKernel(self)

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
        return self.arena.payload(self._cids[pfn])

    def peek_content(self, pfn: int) -> PageContent:
        """Diagnostic read bypassing the sanitizer's UAF check.

        For tests and debugging tools that legitimately inspect freed
        frames (e.g. validating that a freed frame's cached digest is
        still exact) — the moral equivalent of reading /proc/kcore.
        Simulation code must use :meth:`read`.
        """
        self.check_pfn(pfn)
        return self.arena.payload(self._cids[pfn])

    def write(self, pfn: int, content: PageContent) -> None:
        """Overwrite frame ``pfn`` with canonical ``content``."""
        self.check_pfn(pfn)
        if len(content) > PAGE_SIZE:
            raise InvalidFrameError("content larger than a page")
        if self.sanitizer is not None:
            self.sanitizer.on_write(pfn)
        self._store(pfn, content)
        self._versions[pfn] += 1
        self.fingerprints.note_mutation(pfn)

    def _store(self, pfn: int, content: PageContent) -> None:
        """Point ``pfn`` at ``content``'s id (interned before the old id
        is released, so rewriting a frame's own content never recycles
        its slot)."""
        arena = self.arena
        cid = arena._intern(content)
        arena._release(self._cids[pfn])
        self._cids[pfn] = cid

    def copy(self, src: int, dst: int) -> None:
        """Copy the full page content of ``src`` into ``dst``.

        No bytes move: ``dst`` simply retains ``src``'s content id.
        """
        self.check_pfn(src)
        self.check_pfn(dst)
        if self.sanitizer is not None:
            self.sanitizer.on_read(src)
            self.sanitizer.on_write(dst)
        arena, cids = self.arena, self._cids
        cid = cids[src]
        arena._retain(cid)
        arena._release(cids[dst])
        cids[dst] = cid
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
        # physical phenomenon under study, not a simulator bug.  The
        # flip re-interns: the frame moves to the flipped payload's id,
        # other holders of the old id are untouched (a flip is per
        # *frame*, not per content).
        self._store(
            pfn, flip_bit(self.arena.payload(self._cids[pfn]), byte_offset, bit)
        )
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
        payload = self.arena.payload
        return [payload(cid) for cid in self._cids]

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------
    def merge_key(self, pfn: int) -> int:
        """A hashable key equal iff two frames hold equal content.

        The integer content id: one dict probe groups a merge candidate
        in O(1) regardless of payload size, and bucketing by merge key
        partitions frames exactly like bucketing by content — in the
        same encounter order.  Counts as a content read for the
        sanitizer (use-after-free checks fire exactly as for
        :meth:`read`).
        """
        self.check_pfn(pfn)
        if self.sanitizer is not None:
            self.sanitizer.on_read(pfn)
        return self._cids[pfn]

    def content_id(self, pfn: int) -> int:
        """The arena content id of ``pfn`` (no sanitizer hook)."""
        self.check_pfn(pfn)
        return self._cids[pfn]

    def same_content(self, pfn: int, content: PageContent) -> bool:
        """Whether frame ``pfn`` currently holds exactly ``content``.

        The supported way for engines to re-validate a match (simlint's
        MEM002 flags raw ``read(pfn) == content`` comparisons in fusion
        hot paths).  Interned payloads make the common case an
        object-identity check.
        """
        self.check_pfn(pfn)
        if self.sanitizer is not None:
            self.sanitizer.on_read(pfn)
        stored = self.arena.payload(self._cids[pfn])
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

        Behaviourally ``[digest(pfn) for pfn in pfns]``; duplicate
        content ids in the batch collapse to a single cache probe each
        (and the batch scan kernel vectorizes the column indexing), with
        hit/miss stats matching the per-frame path exactly.
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
        including :meth:`corrupt_bit`: a Rowhammer flip is a change.
        """
        self.check_pfn(pfn)
        return self.fingerprints.generation(pfn)

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

        Sorted ascending.  The sorted snapshot is cached and only
        rebuilt after a frame gains its first or loses its last mapping,
        so steady-state calls are O(1) + iteration.
        """
        cached = self._mapped_cache
        if cached is None:
            cached = tuple(sorted(self._rmap))
            self._mapped_cache = cached
        return iter(cached)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    # Counter-backed (``tests/test_store_accounting.py`` proves counter
    # and full recount never disagree).

    def frames_in_use(self) -> int:
        """Number of frames not currently free (O(1))."""
        return self._in_use

    def type_histogram(self) -> dict[FrameType, int]:
        """Frame counts per :class:`FrameType` (O(#types))."""
        counts = self._type_counts
        return {frame_type: counts[frame_type._value_] for frame_type in FrameType}
