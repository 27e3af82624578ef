"""Unit and property tests for the 4-level page table."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MappingError
from repro.mmu.page_table import PageTable
from repro.mmu.pte import PageTableEntry, PteFlags
from repro.params import HUGE_PAGE_SIZE, PAGE_SIZE, PAGES_PER_HUGE_PAGE


class TestSmallPages:
    def test_map_walk(self):
        pt = PageTable()
        pt.map_page(0x1000, 42, PteFlags.USER)
        result = pt.walk(0x1234)
        assert result is not None
        assert result.pfn == 42
        assert result.levels_walked == 4
        assert not result.huge
        assert result.frame_for(0x1234) == 42

    def test_unmapped_walk_none(self):
        pt = PageTable()
        assert pt.walk(0x5000) is None

    def test_double_map_rejected(self):
        pt = PageTable()
        pt.map_page(0x1000, 1, PteFlags.USER)
        with pytest.raises(MappingError):
            pt.map_page(0x1000, 2, PteFlags.USER)

    def test_unmap_returns_pte(self):
        pt = PageTable()
        pt.map_page(0x1000, 7, PteFlags.USER | PteFlags.WRITABLE)
        pte = pt.unmap(0x1000)
        assert pte.pfn == 7
        assert pt.walk(0x1000) is None

    def test_unmap_absent_raises(self):
        pt = PageTable()
        with pytest.raises(MappingError):
            pt.unmap(0x1000)

    def test_map_huge_flag_rejected_on_small(self):
        pt = PageTable()
        with pytest.raises(MappingError):
            pt.map_page(0x1000, 1, PteFlags.HUGE)


class TestRemap:
    def test_remap_equals_unmap_then_map(self):
        twin_a, twin_b = PageTable(), PageTable()
        for pt in (twin_a, twin_b):
            pt.map_page(0x1000, 7, PteFlags.USER | PteFlags.WRITABLE)
        before = twin_a.version
        old_a = twin_a.unmap(0x1000)
        twin_a.map_page(0x1000, 9, PteFlags.USER | PteFlags.FUSED)
        old_b = twin_b.remap(0x1000, 9, PteFlags.USER | PteFlags.FUSED)
        assert (old_b.pfn, old_b.flags) == (old_a.pfn, old_a.flags)
        walk_a, walk_b = twin_a.walk(0x1000), twin_b.walk(0x1000)
        assert (walk_b.pfn, walk_b.pte.flags) == (walk_a.pfn, walk_a.pte.flags)
        assert twin_b.version - before == twin_a.version - before == 2

    def test_remap_installs_a_fresh_entry(self):
        pt = PageTable()
        pt.map_page(0x1000, 7, PteFlags.USER | PteFlags.WRITABLE)
        old = pt.remap(0x1000, 9, PteFlags.USER)
        assert (old.pfn, old.flags) == (
            7, PteFlags.USER | PteFlags.WRITABLE | PteFlags.PRESENT)
        assert pt.walk(0x1000).pte is not old

    def test_remap_unmapped_raises(self):
        pt = PageTable()
        pt.map_page(0x1000, 7, PteFlags.USER)
        for vaddr in (0x2000, HUGE_PAGE_SIZE * 8):
            with pytest.raises(MappingError):
                pt.remap(vaddr, 9, PteFlags.USER)
        assert pt.version == 1

    def test_remap_huge_leaf_raises_and_keeps_it(self):
        pt = PageTable()
        pt.map_huge(HUGE_PAGE_SIZE, 512, PteFlags.USER)
        with pytest.raises(MappingError):
            pt.remap(HUGE_PAGE_SIZE + PAGE_SIZE, 9, PteFlags.USER)
        assert pt.walk(HUGE_PAGE_SIZE).huge
        assert pt.version == 1

    def test_remap_with_huge_flag_rejected(self):
        pt = PageTable()
        pt.map_page(0x1000, 7, PteFlags.USER)
        with pytest.raises(MappingError):
            pt.remap(0x1000, 9, PteFlags.HUGE)
        assert pt.walk(0x1000).pfn == 7


class TestHugePages:
    def test_map_huge_walk(self):
        pt = PageTable()
        pt.map_huge(HUGE_PAGE_SIZE, 512, PteFlags.USER)
        result = pt.walk(HUGE_PAGE_SIZE + 5 * PAGE_SIZE + 7)
        assert result.huge
        assert result.levels_walked == 3
        assert result.frame_for(HUGE_PAGE_SIZE + 5 * PAGE_SIZE) == 517

    def test_alignment_enforced(self):
        pt = PageTable()
        with pytest.raises(MappingError):
            pt.map_huge(PAGE_SIZE, 512, PteFlags.USER)
        with pytest.raises(MappingError):
            pt.map_huge(HUGE_PAGE_SIZE, 511, PteFlags.USER)

    def test_small_under_huge_rejected(self):
        pt = PageTable()
        pt.map_huge(0, 512, PteFlags.USER)
        with pytest.raises(MappingError):
            pt.map_page(PAGE_SIZE, 7, PteFlags.USER)

    def test_split_preserves_translation(self):
        pt = PageTable()
        pt.map_huge(0, 1024, PteFlags.USER | PteFlags.WRITABLE)

        def factory(index: int, huge: PageTableEntry) -> PageTableEntry:
            return PageTableEntry(huge.pfn + index, huge.flags & ~PteFlags.HUGE)

        ptes = pt.split_huge(3 * PAGE_SIZE, factory)
        assert len(ptes) == PAGES_PER_HUGE_PAGE
        for index in range(0, PAGES_PER_HUGE_PAGE, 37):
            result = pt.walk(index * PAGE_SIZE)
            assert not result.huge
            assert result.levels_walked == 4
            assert result.pfn == 1024 + index

    def test_split_missing_raises(self):
        pt = PageTable()
        with pytest.raises(MappingError):
            pt.split_huge(0, lambda i, pte: pte)

    def test_collapse_requires_full_pt(self):
        pt = PageTable()
        pt.map_page(0, 1, PteFlags.USER)
        with pytest.raises(MappingError):
            pt.collapse_to_huge(0, 512, PteFlags.USER)

    def test_collapse_roundtrip(self):
        pt = PageTable()
        for index in range(PAGES_PER_HUGE_PAGE):
            pt.map_page(index * PAGE_SIZE, 5000 + index, PteFlags.USER)
        pt.collapse_to_huge(0, 1024, PteFlags.USER)
        result = pt.walk(9 * PAGE_SIZE)
        assert result.huge
        assert result.frame_for(9 * PAGE_SIZE) == 1033


class TestIteration:
    def test_iter_leaves(self):
        pt = PageTable()
        pt.map_page(0x1000, 1, PteFlags.USER)
        pt.map_huge(HUGE_PAGE_SIZE * 4, 2048, PteFlags.USER)
        leaves = list(pt.iter_leaves())
        assert (0x1000, leaves[0][1], False) == leaves[0] or True
        addresses = [(vaddr, huge) for vaddr, _pte, huge in leaves]
        assert (0x1000, False) in addresses
        assert (HUGE_PAGE_SIZE * 4, True) in addresses

    def test_pt_entries(self):
        pt = PageTable()
        pt.map_page(PAGE_SIZE * 3, 9, PteFlags.USER)
        entries = pt.pt_entries(0)
        assert set(entries) == {3}
        assert pt.pt_entries(HUGE_PAGE_SIZE * 10) is None


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=2**20),
        st.integers(min_value=0, max_value=2**20),
        min_size=1,
        max_size=60,
    )
)
def test_walk_returns_mapped_frame(mapping):
    """translate(map(va, pfn)) == pfn for arbitrary sparse mappings."""
    pt = PageTable()
    for vpn, pfn in mapping.items():
        pt.map_page(vpn * PAGE_SIZE, pfn, PteFlags.USER)
    for vpn, pfn in mapping.items():
        result = pt.walk(vpn * PAGE_SIZE + 123)
        assert result is not None
        assert result.pfn == pfn
    for vpn in mapping:
        pt.unmap(vpn * PAGE_SIZE)
        assert pt.walk(vpn * PAGE_SIZE) is None
