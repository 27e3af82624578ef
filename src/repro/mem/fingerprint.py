"""Content fingerprints and change tracking for physical frames.

Every fusion engine repeatedly hashes page contents: KSM checksums each
candidate on each pass, WPF re-sorts its candidate list by digest.  At
simulation scale that blake2b work is the hottest loop in the whole
system.  This module serves one 64-bit digest per frame from the
:class:`~repro.mem.arena.ContentArena`'s per-unique-content cache.
Arena digests are content-addressed — a mutation, Rowhammer's
``corrupt_bit`` included, swaps the frame's content id rather than
editing a payload — so they can never go stale and need no
invalidation at all, and ``digest(pfn)`` costs one blake2b per unique
payload instead of one per frame.

Two things must never change whether the cache is on or off:

* **Simulated time.**  Engines keep charging ``costs.checksum_page``
  (and every other cost) exactly as before; the cache only removes the
  *Python* work of recomputing the hash.  Fig. 5/6 latency
  distributions are byte-identical with the cache on or off.
* **Behaviour.**  ``digest(pfn)`` always equals
  ``content_digest(read(pfn))``; the differential hypothesis suite
  (``tests/test_fingerprint_differential.py``) checks this under random
  interleavings of writes, bit flips, merges and unmerges.

With fingerprints *disabled* the hash is recomputed on every call —
the disabled configuration stays a true no-cache baseline (the
physmem perf gate measures against it).

Beside the digests sits a per-frame **generation counter** bumped on
every mutation (unlike :meth:`PhysicalMemory.version`, which
deliberately ignores ``corrupt_bit`` to model one-way Rowhammer charge
leakage); the scan kernel's generation snapshot/delta primitives read
it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.mem.content import content_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.arena import ContentArena


@dataclass
class FingerprintStats:
    """Counters for the digest cache (diagnostic only, never artifacts)."""

    #: ``digest()`` answered from the cache.
    digest_hits: int = 0
    #: ``digest()`` had to run blake2b (also counted when disabled).
    digest_misses: int = 0
    #: Total frame mutations seen (writes, copies, bit corruptions).
    mutations: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "digest_hits": self.digest_hits,
            "digest_misses": self.digest_misses,
            "mutations": self.mutations,
        }


class FingerprintCache:
    """Frame digests with generation-based change tracking.

    Owned by :class:`~repro.mem.physmem.PhysicalMemory`, whose content
    column ``cids`` (one arena content id per frame) it reads through;
    all mutation paths funnel through :meth:`note_mutation`.
    Generations are maintained even when caching is disabled — they are
    behaviour-neutral bookkeeping — so the ``fingerprint_enabled`` flag
    toggles only whether blake2b results are remembered.
    """

    def __init__(self, arena: "ContentArena", cids: "array[int]",
                 enabled: bool = True) -> None:
        self.enabled = enabled
        self.stats = FingerprintStats()
        self._arena = arena
        self._cids = cids
        #: Per-frame generation counters in a fixed-size signed-64
        #: column (never reallocated), so the batch scan kernel can
        #: hold a zero-copy view for generation-delta filtering.
        self._generations = array("q", bytes(8 * len(cids)))

    # ------------------------------------------------------------------
    # Write barrier
    # ------------------------------------------------------------------
    def note_mutation(self, pfn: int) -> None:
        """Record that frame ``pfn``'s content changed (any cause)."""
        self._generations[pfn] += 1
        self.stats.mutations += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def generation(self, pfn: int) -> int:
        return self._generations[pfn]

    def digest(self, pfn: int) -> int:
        """64-bit digest of the current content of ``pfn``."""
        arena, cid = self._arena, self._cids[pfn]
        if not self.enabled:
            self.stats.digest_misses += 1
            return content_digest(arena.payload(cid))
        cached = arena.peek_digest(cid)
        if cached is not None:
            self.stats.digest_hits += 1
            return cached
        self.stats.digest_misses += 1
        return arena.digest(cid)

    def peek(self, pfn: int) -> int | None:
        """Return the cached digest of ``pfn`` without computing one."""
        return self._arena.peek_digest(self._cids[pfn])

    def cached_frames(self) -> frozenset[int]:
        """Frames whose digest would be served from cache right now."""
        peek = self._arena.peek_digest
        return frozenset(
            pfn for pfn, cid in enumerate(self._cids)
            if peek(cid) is not None
        )
