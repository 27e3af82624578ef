"""A 4-level x86-64-style radix page table.

Virtual addresses are 48 bits: four 9-bit indices (PML4, PDPT, PD, PT)
above a 12-bit page offset.  A 2 MiB huge page is a leaf at the PD
level (PS bit set), so translating it walks one level less than a
4 KiB page — the structural difference behind the paper's
translation-change (AnC-style) side channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import MappingError
from repro.mmu.pte import PageTableEntry, PteFlags
from repro.params import HUGE_PAGE_SIZE, PAGE_SIZE, PAGES_PER_HUGE_PAGE

#: Bits of VA covered by the page offset.
PAGE_SHIFT = 12
#: Bits covered by a huge-page offset.
HUGE_SHIFT = 21
#: Index bits per level.
LEVEL_BITS = 9
#: Number of radix levels (PML4, PDPT, PD, PT).
NUM_LEVELS = 4


def _indices(vaddr: int) -> tuple[int, int, int, int]:
    vpn = vaddr >> PAGE_SHIFT
    return (
        (vpn >> (3 * LEVEL_BITS)) & 0x1FF,
        (vpn >> (2 * LEVEL_BITS)) & 0x1FF,
        (vpn >> LEVEL_BITS) & 0x1FF,
        vpn & 0x1FF,
    )


@dataclass(frozen=True)
class TranslationResult:
    """Outcome of a page-table walk.

    ``levels_walked`` is the number of table levels the hardware had to
    read (3 for a huge-page leaf, 4 for a 4 KiB page); it feeds the
    timing model on TLB misses.
    """

    pte: PageTableEntry
    huge: bool
    levels_walked: int
    page_base: int

    @property
    def pfn(self) -> int:
        return self.pte.pfn

    def frame_for(self, vaddr: int) -> int:
        """Physical frame backing ``vaddr`` (resolves huge-page offset)."""
        if not self.huge:
            return self.pte.pfn
        return self.pte.pfn + ((vaddr - self.page_base) >> PAGE_SHIFT)


class PageTable:
    """Radix page table for one address space."""

    def __init__(self) -> None:
        self._root: dict[int, dict] = {}
        #: Structure version: bumped by every mapping change (map,
        #: unmap, split, collapse).  In-place PTE *flag* edits do not
        #: bump it.
        self.version = 0

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_page(self, vaddr: int, pfn: int, flags: int) -> PageTableEntry:
        """Install a 4 KiB leaf for the page containing ``vaddr``."""
        if flags & PteFlags.HUGE:
            raise MappingError("use map_huge for huge pages")
        l4, l3, l2, l1 = _indices(vaddr)
        pdpt = self._root.setdefault(l4, {})
        pd = pdpt.setdefault(l3, {})
        entry = pd.get(l2)
        if isinstance(entry, PageTableEntry):
            raise MappingError(f"huge page already maps {vaddr:#x}")
        pt = pd.setdefault(l2, {})
        if l1 in pt:
            raise MappingError(f"page already mapped at {vaddr:#x}")
        pte = PageTableEntry(pfn, flags | PteFlags.PRESENT)
        pt[l1] = pte
        self.version += 1
        return pte

    def map_huge(self, vaddr: int, pfn: int, flags: int) -> PageTableEntry:
        """Install a 2 MiB leaf; ``vaddr`` and ``pfn`` must be aligned."""
        if vaddr % HUGE_PAGE_SIZE != 0:
            raise MappingError(f"huge mapping at unaligned address {vaddr:#x}")
        if pfn % PAGES_PER_HUGE_PAGE != 0:
            raise MappingError(f"huge mapping of unaligned pfn {pfn}")
        l4, l3, l2, _ = _indices(vaddr)
        pdpt = self._root.setdefault(l4, {})
        pd = pdpt.setdefault(l3, {})
        if l2 in pd:
            raise MappingError(f"address {vaddr:#x} already mapped")
        pte = PageTableEntry(pfn, flags | PteFlags.PRESENT | PteFlags.HUGE)
        pd[l2] = pte
        self.version += 1
        return pte

    def remap(self, vaddr: int, pfn: int, flags: int) -> PageTableEntry:
        """Point the 4 KiB leaf at ``vaddr`` to ``pfn``; return the old PTE.

        One walk doing what :meth:`unmap` then :meth:`map_page` do: a
        fresh entry replaces the old one (which is left untouched) and
        the version moves by 2, as the two calls would move it.
        """
        if flags & PteFlags.HUGE:
            raise MappingError("use map_huge for huge pages")
        l4, l3, l2, l1 = _indices(vaddr)
        pd = self._root.get(l4, {}).get(l3)
        pt = None if pd is None else pd.get(l2)
        if isinstance(pt, PageTableEntry):
            raise MappingError(f"remap hit a huge page at {vaddr:#x}")
        old = None if pt is None else pt.get(l1)
        if old is None:
            raise MappingError(f"no mapping at {vaddr:#x}")
        pt[l1] = PageTableEntry(pfn, flags | PteFlags.PRESENT)
        self.version += 2
        return old

    def unmap(self, vaddr: int) -> PageTableEntry:
        """Remove and return the leaf mapping ``vaddr`` (4 KiB or huge)."""
        l4, l3, l2, l1 = _indices(vaddr)
        pd = self._root.get(l4, {}).get(l3)
        if pd is None:
            raise MappingError(f"no mapping at {vaddr:#x}")
        entry = pd.get(l2)
        if isinstance(entry, PageTableEntry):
            del pd[l2]
            self.version += 1
            return entry
        if isinstance(entry, dict) and l1 in entry:
            pte = entry.pop(l1)
            if not entry:
                del pd[l2]
            self.version += 1
            return pte
        raise MappingError(f"no mapping at {vaddr:#x}")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def walk(self, vaddr: int) -> TranslationResult | None:
        """Translate ``vaddr``; return None if nothing maps it."""
        l4, l3, l2, l1 = _indices(vaddr)
        pdpt = self._root.get(l4)
        if pdpt is None:
            return None
        pd = pdpt.get(l3)
        if pd is None:
            return None
        entry = pd.get(l2)
        if entry is None:
            return None
        if isinstance(entry, PageTableEntry):
            base = vaddr & ~(HUGE_PAGE_SIZE - 1)
            return TranslationResult(entry, huge=True, levels_walked=3, page_base=base)
        pte = entry.get(l1)
        if pte is None:
            return None
        base = vaddr & ~(PAGE_SIZE - 1)
        return TranslationResult(pte, huge=False, levels_walked=4, page_base=base)

    # ------------------------------------------------------------------
    # Huge-page restructuring
    # ------------------------------------------------------------------
    def split_huge(
        self, vaddr: int, pte_factory: Callable[[int, PageTableEntry], PageTableEntry]
    ) -> list[PageTableEntry]:
        """Replace the huge leaf covering ``vaddr`` with 512 4 KiB PTEs.

        ``pte_factory(index, huge_pte)`` builds the PTE for subpage
        ``index``; the kernel uses it to preserve flags and update rmap
        and refcounts.  Returns the new PTEs in subpage order.
        """
        base = vaddr & ~(HUGE_PAGE_SIZE - 1)
        l4, l3, l2, _ = _indices(base)
        pd = self._root.get(l4, {}).get(l3)
        entry = None if pd is None else pd.get(l2)
        if not isinstance(entry, PageTableEntry):
            raise MappingError(f"no huge page at {vaddr:#x}")
        new_ptes = [pte_factory(i, entry) for i in range(PAGES_PER_HUGE_PAGE)]
        pd[l2] = {i: pte for i, pte in enumerate(new_ptes)}
        self.version += 1
        return new_ptes

    def collapse_to_huge(self, vaddr: int, pfn: int, flags: int) -> PageTableEntry:
        """Replace a fully-populated PT with one huge leaf (khugepaged)."""
        base = vaddr & ~(HUGE_PAGE_SIZE - 1)
        l4, l3, l2, _ = _indices(base)
        pd = self._root.get(l4, {}).get(l3)
        entry = None if pd is None else pd.get(l2)
        if not isinstance(entry, dict):
            raise MappingError(f"no page table to collapse at {vaddr:#x}")
        if len(entry) != PAGES_PER_HUGE_PAGE:
            raise MappingError(
                f"page table at {vaddr:#x} has {len(entry)} of "
                f"{PAGES_PER_HUGE_PAGE} pages mapped"
            )
        pte = PageTableEntry(pfn, flags | PteFlags.PRESENT | PteFlags.HUGE)
        pd[l2] = pte
        self.version += 1
        return pte

    def pt_entries(self, vaddr: int) -> dict[int, PageTableEntry] | None:
        """Return the 4 KiB PTE dict of the PT covering ``vaddr``, if any."""
        l4, l3, l2, _ = _indices(vaddr)
        pd = self._root.get(l4, {}).get(l3)
        entry = None if pd is None else pd.get(l2)
        return entry if isinstance(entry, dict) else None

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def iter_leaves(self) -> Iterator[tuple[int, PageTableEntry, bool]]:
        """Yield ``(vaddr, pte, is_huge)`` for every mapped leaf."""
        for l4, pdpt in sorted(self._root.items()):
            for l3, pd in sorted(pdpt.items()):
                for l2, entry in sorted(pd.items()):
                    base = ((l4 << 27) | (l3 << 18) | (l2 << 9)) << PAGE_SHIFT
                    if isinstance(entry, PageTableEntry):
                        yield base, entry, True
                    else:
                        for l1, pte in sorted(entry.items()):
                            yield base | (l1 << PAGE_SHIFT), pte, False
