"""Machine-wide measurements used by the experiments."""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.kernel import Kernel
from repro.params import SECOND


@dataclass(frozen=True)
class MemorySample:
    """One point of a memory-consumption time series."""

    t_ns: int
    frames_in_use: int
    saved_frames: int
    huge_pages: int

    @property
    def t_s(self) -> float:
        return self.t_ns / SECOND


def count_huge_pages(kernel: Kernel) -> int:
    """Number of intact 2 MiB mappings across all processes (Fig. 9)."""
    total = 0
    for process in kernel.processes:
        if not process.alive:
            continue
        for _vaddr, _pte, huge in process.address_space.page_table.iter_leaves():
            if huge:
                total += 1
    return total


def take_sample(kernel: Kernel) -> MemorySample:
    saved = kernel.fusion.saved_frames() if kernel.fusion is not None else 0
    return MemorySample(
        t_ns=kernel.clock.now,
        frames_in_use=kernel.frames_in_use(),
        saved_frames=saved,
        huge_pages=count_huge_pages(kernel),
    )


def fused_page_breakdown(kernel: Kernel) -> dict[str, int]:
    """Classify currently-fused PTEs by guest page kind (Table 3).

    Walks every VMA tagged with ``guest_kind`` and counts pages whose
    PTE carries the FUSED bit.  Untagged VMAs count as "rest".
    """
    breakdown: dict[str, int] = {}
    for process in kernel.processes:
        if not process.alive:
            continue
        page_table = process.address_space.page_table
        for vma in process.address_space.vmas:
            kind = vma.extra.get("guest_kind", "rest")
            for vaddr in vma.pages():
                walk = page_table.walk(vaddr)
                if walk is not None and not walk.huge and walk.pte.fused:
                    breakdown[kind] = breakdown.get(kind, 0) + 1
    return breakdown
