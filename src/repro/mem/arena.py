"""Hash-consed content arena: one canonical copy per unique page payload.

Content identity — not content bytes — is the primitive every dedup
mechanism (and attack) actually operates on, so physical memory
deduplicates its own ground truth the same way the engines it
simulates deduplicate guest memory.  The arena interns every
:class:`~repro.mem.content.PageContent` payload into a small integer
**content id** (cid):

* equal payloads always share one cid, so frame-content equality is an
  integer comparison (and ``bytes`` equality between two interned
  payloads short-circuits on object identity);
* cids are reference counted; a frame holds exactly one reference on
  its current cid, and an entry is recycled the moment the last holder
  releases it;
* the 64-bit content digest is computed at most once per *unique*
  payload.  Digests are content-addressed: mutating a frame swaps its
  cid, it never edits a payload in place, so a cached digest can never
  go stale, so the fingerprint cache needs no per-frame invalidation.

Invariants (cross-checked by FrameSan's end-of-run audit and the
property tests in ``tests/test_content_arena.py``):

* ``_ids[payload] == cid`` iff ``_payloads[cid] is payload`` and
  ``_refcount[cid] > 0``;
* the refcount of a live cid equals the number of frames currently
  holding it (plus the arena's own permanent reference for
  :data:`ZERO_ID`);
* a recycled slot holds no payload and no digest.

Only ``repro.mem`` may call the underscore mutators (``_intern`` /
``_retain`` / ``_release``); simlint's MEM001 enforces this the same
way it protects ``PhysicalMemory._contents``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.content import PageContent, ZERO_PAGE, content_digest

#: The cid of the canonical all-zero page; permanently live.
ZERO_ID = 0


@dataclass
class ArenaStats:
    """Counters for the content arena."""

    #: ``_intern()`` calls answered by an existing entry.
    intern_hits: int = 0
    #: ``_intern()`` calls that created a new entry.
    intern_misses: int = 0
    #: Entries whose last reference was dropped (slot recycled).
    entries_freed: int = 0
    #: Digests computed (at most once per live unique payload).
    digests_computed: int = 0
    #: High-water mark of simultaneously live unique payloads.
    peak_unique: int = 1

    def as_dict(self) -> dict[str, int]:
        return {
            "intern_hits": self.intern_hits,
            "intern_misses": self.intern_misses,
            "entries_freed": self.entries_freed,
            "digests_computed": self.digests_computed,
            "peak_unique": self.peak_unique,
        }


class ContentArena:
    """Refcounted intern table mapping payloads to content ids."""

    __slots__ = ("_ids", "_payloads", "_refcount", "_digest_cache",
                 "_free_ids", "stats")

    #: Mirror of :data:`ZERO_ID` reachable through an instance, so
    #: consumers that must not import repro.mem at runtime (FrameSan —
    #: LAY001 keeps repro.check a leaf) can still name the zero id.
    zero_id = ZERO_ID

    def __init__(self) -> None:
        self._ids: dict[PageContent, int] = {ZERO_PAGE: ZERO_ID}
        self._payloads: list[PageContent | None] = [ZERO_PAGE]
        # Slot ZERO_ID carries one permanent self-reference so the zero
        # page is never recycled (every frame starts out holding it).
        self._refcount: list[int] = [1]
        self._digest_cache: list[int | None] = [None]
        self._free_ids: list[int] = []
        self.stats = ArenaStats()

    # ------------------------------------------------------------------
    # Mutators — repro.mem only (MEM001)
    # ------------------------------------------------------------------
    def _intern(self, content: PageContent) -> int:
        """Return the cid for ``content``, holding one new reference."""
        cid = self._ids.get(content)
        if cid is not None:
            self._refcount[cid] += 1
            self.stats.intern_hits += 1
            return cid
        self.stats.intern_misses += 1
        if self._free_ids:
            cid = self._free_ids.pop()
            self._payloads[cid] = content
            self._refcount[cid] = 1
            self._digest_cache[cid] = None
        else:
            cid = len(self._payloads)
            self._payloads.append(content)
            self._refcount.append(1)
            self._digest_cache.append(None)
        self._ids[content] = cid
        unique = len(self._ids)
        if unique > self.stats.peak_unique:
            self.stats.peak_unique = unique
        return cid

    def _retain(self, cid: int, count: int = 1) -> None:
        """Take ``count`` extra references on a live cid."""
        if self._refcount[cid] <= 0:
            raise ValueError(f"retain of dead content id {cid}")
        self._refcount[cid] += count

    def _release(self, cid: int) -> None:
        """Drop one reference; recycles the slot at zero."""
        refs = self._refcount[cid] - 1
        if refs < 0:
            raise ValueError(f"refcount underflow on content id {cid}")
        self._refcount[cid] = refs
        if refs == 0:
            payload = self._payloads[cid]
            del self._ids[payload]
            self._payloads[cid] = None
            self._digest_cache[cid] = None
            self._free_ids.append(cid)
            self.stats.entries_freed += 1

    # ------------------------------------------------------------------
    # Read-only queries
    # ------------------------------------------------------------------
    def payload(self, cid: int) -> PageContent:
        """The canonical payload behind a live cid."""
        payload = self._payloads[cid]
        if payload is None:
            raise ValueError(f"content id {cid} is not live")
        return payload

    def refcount(self, cid: int) -> int:
        """Current reference count of ``cid`` (0 for recycled slots)."""
        return self._refcount[cid]

    def digest(self, cid: int) -> int:
        """64-bit digest of ``cid``'s payload, computed once per entry.

        Safe to cache unconditionally: payloads are immutable and the
        slot's digest is cleared when the slot is recycled.
        """
        cached = self._digest_cache[cid]
        if cached is not None:
            return cached
        value = content_digest(self.payload(cid))
        self._digest_cache[cid] = value
        self.stats.digests_computed += 1
        return value

    def peek_digest(self, cid: int) -> int | None:
        """The cached digest of ``cid``, or None if never computed."""
        return self._digest_cache[cid]

    def lookup(self, content: PageContent) -> int | None:
        """The cid currently interning ``content``, without retaining."""
        return self._ids.get(content)

    def unique_contents(self) -> int:
        """Number of distinct payloads currently live."""
        return len(self._ids)

    def live_ids(self) -> list[int]:
        """All live cids, ascending (diagnostics and audits)."""
        return sorted(self._ids.values())

    def cid_table(self) -> list[tuple[int, int, int]]:
        """``(digest, cid, refcount)`` export of every live content.

        Digest-sorted like a shard export table; the global ledger
        audit cross-checks each shard's advertised holder counts
        against this ground truth.
        """
        return sorted(
            (self.digest(cid), cid, self._refcount[cid])
            for cid in self._ids.values()
        )

    def __len__(self) -> int:
        return len(self._ids)
