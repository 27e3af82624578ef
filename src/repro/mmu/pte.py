"""Page-table entry representation.

Models the x86-64 PTE bits that matter to the paper:

* ``PRESENT``/``WRITABLE``/``ACCESSED``/``DIRTY`` — the ordinary
  protection and tracking bits.  The accessed bit drives idle page
  tracking (working-set estimation).
* ``HUGE`` — the PS bit marking a 2 MiB leaf at the PD level.
* ``RESERVED`` — VUsion sets a reserved bit so that *any* access
  (read, write or instruction/prefetch fetch) faults regardless of the
  permission bits, exactly as on real Intel/AMD MMUs.
* ``CACHE_DISABLED`` — VUsion sets the CD bit on (fake-)merged pages to
  defeat prefetch-based side channels: an uncached page can never be
  pulled into the LLC.

``COW`` and ``FUSED`` are software bits (real kernels keep equivalent
state in ``struct page`` / rmap); keeping them in the PTE simplifies the
simulator without changing observable behaviour.

The flags are plain ``int`` constants, not an ``enum.IntFlag``: every
walk, fault and remap tests PTE bits, and enum arithmetic would cost a
Python-level call per ``&``/``|``.
"""

from __future__ import annotations


class PteFlags:
    """Bit flags of a simulated page-table entry (plain ``int`` bits)."""

    NONE = 0
    PRESENT = 1 << 0
    WRITABLE = 1 << 1
    USER = 1 << 2
    ACCESSED = 1 << 3
    DIRTY = 1 << 4
    HUGE = 1 << 5
    CACHE_DISABLED = 1 << 6
    RESERVED = 1 << 7
    # Software bits.
    COW = 1 << 8
    FUSED = 1 << 9


class PageTableEntry:
    """A leaf page-table entry mapping one 4 KiB or 2 MiB page."""

    __slots__ = ("pfn", "flags")

    def __init__(self, pfn: int, flags: int) -> None:
        self.pfn = pfn
        self.flags = flags

    # -- flag helpers ---------------------------------------------------
    @property
    def present(self) -> bool:
        return bool(self.flags & PteFlags.PRESENT)

    @property
    def writable(self) -> bool:
        return bool(self.flags & PteFlags.WRITABLE)

    @property
    def accessed(self) -> bool:
        return bool(self.flags & PteFlags.ACCESSED)

    @property
    def dirty(self) -> bool:
        return bool(self.flags & PteFlags.DIRTY)

    @property
    def huge(self) -> bool:
        return bool(self.flags & PteFlags.HUGE)

    @property
    def reserved(self) -> bool:
        return bool(self.flags & PteFlags.RESERVED)

    @property
    def cache_disabled(self) -> bool:
        return bool(self.flags & PteFlags.CACHE_DISABLED)

    @property
    def cow(self) -> bool:
        return bool(self.flags & PteFlags.COW)

    @property
    def fused(self) -> bool:
        return bool(self.flags & PteFlags.FUSED)

    def set(self, flags: int) -> None:
        self.flags |= flags

    def clear(self, flags: int) -> None:
        self.flags &= ~flags

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PageTableEntry(pfn={self.pfn}, flags={self.flags:#x})"
