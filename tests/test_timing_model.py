"""Unit tests for the composite access-timing model and cost params."""

from __future__ import annotations

from repro.cache.llc import LastLevelCache
from repro.cache.timing import AccessTimer
from repro.core.vusion import Vusion
from repro.dram.geometry import DramMapper
from repro.fusion.ksm import Ksm
from repro.fusion.wpf import WindowsPageFusion
from repro.kernel.kernel import Kernel
from repro.mem.content import tagged_content
from repro.params import (
    CacheGeometry,
    CostModel,
    DramGeometry,
    FusionConfig,
    MachineSpec,
    MS,
    PAGE_SIZE,
    TlbGeometry,
    VusionConfig,
    WpfConfig,
)


def make_timer():
    costs = CostModel()
    llc = LastLevelCache(CacheGeometry())
    dram = DramMapper(DramGeometry(), 4096)
    return costs, llc, AccessTimer(costs, llc, dram)


class TestDramRowBuffer:
    def test_first_access_misses_row(self):
        costs, _llc, timer = make_timer()
        assert timer.dram_access(0) == costs.dram_row_miss

    def test_same_row_hits(self):
        costs, _llc, timer = make_timer()
        timer.dram_access(0)
        assert timer.dram_access(1) == costs.dram_row_hit  # row spans 2 pages

    def test_other_bank_keeps_row_open(self):
        costs, _llc, timer = make_timer()
        timer.dram_access(0)
        timer.dram_access(2)  # different bank
        assert timer.dram_access(0) == costs.dram_row_hit

    def test_row_conflict_in_same_bank(self):
        costs, _llc, timer = make_timer()
        timer.dram_access(0)
        timer.dram_access(16)  # same bank, next row
        assert timer.dram_access(0) == costs.dram_row_miss


class TestMemoryAccess:
    def test_cacheable_hit_cheap(self):
        costs, _llc, timer = make_timer()
        timer.memory_access(0x1000, cacheable=True)
        assert timer.memory_access(0x1000, cacheable=True) == costs.llc_hit

    def test_uncached_never_allocates(self):
        costs, llc, timer = make_timer()
        first = timer.memory_access(0x2000, cacheable=False)
        assert first >= costs.uncached_access
        assert not llc.contains_line(0x2000)

    def test_uncached_still_opens_rows(self):
        """Reading an uncacheable page still hammers its DRAM row."""
        costs, _llc, timer = make_timer()
        timer.memory_access(0x0, cacheable=False)
        # The row is now open: a cacheable miss to the same row is cheap.
        second = timer.memory_access(PAGE_SIZE, cacheable=True)
        assert second == costs.llc_hit + costs.dram_row_hit

    def test_translation_costs(self):
        costs, _llc, timer = make_timer()
        assert timer.translation(True, 4) == costs.tlb_hit
        walk4 = timer.translation(False, 4)
        walk3 = timer.translation(False, 3)
        assert walk4 - walk3 == costs.page_walk_per_level


class TestGeometryParams:
    def test_paper_cache_geometry(self):
        geometry = CacheGeometry()
        assert geometry.num_sets == 8192
        assert geometry.num_colors == 128

    def test_tlb_sets(self):
        assert TlbGeometry(entries=64, ways=4).num_sets == 16

    def test_dram_row_stride(self):
        assert DramGeometry().row_stride_pages == 16

    def test_machine_scaling(self):
        spec = MachineSpec(total_frames=1000)
        bigger = spec.scaled(2000)
        assert bigger.total_frames == 2000
        assert bigger.cache == spec.cache
        assert bigger.total_bytes == 2000 * PAGE_SIZE

    def test_side_channel_orderings(self):
        """The cost model must preserve the latency orderings every
        attack in the paper depends on."""
        costs = CostModel()
        assert costs.llc_hit < costs.llc_hit + costs.dram_row_hit
        assert costs.dram_row_hit < costs.dram_row_miss
        assert costs.tlb_hit < costs.page_walk_per_level
        # A fault dwarfs any plain access.
        assert costs.fault_trap > 4 * (
            costs.tlb_hit + 4 * costs.page_walk_per_level
            + costs.llc_hit + costs.dram_row_miss
        )


class TestFingerprintChargeNeutrality:
    """The fingerprint digest cache must never move the simulated clock.

    Two kernels run the identical workload in lockstep, one with the
    cache on and one with it off; after *every* step their clocks must
    agree exactly — not just at the end, where compensating errors
    could hide.  The cache-on run must also demonstrably serve digests
    from the cache (else this test would vacuously compare two
    identical slow paths).
    """

    ENGINES = {
        "ksm": lambda: Ksm(
            FusionConfig(pages_per_scan=64, scan_interval=20 * MS)
        ),
        "wpf": lambda: WindowsPageFusion(WpfConfig(pass_interval=60 * MS)),
        "vusion": lambda: Vusion(
            VusionConfig(
                random_pool_frames=128,
                min_idle_ns=50 * MS,
                rerandomize_each_scan=False,
            ),
            FusionConfig(pages_per_scan=64, scan_interval=20 * MS),
        ),
    }

    def _lockstep(self, engine_name):
        factory = self.ENGINES[engine_name]
        kernels = []
        for enabled in (True, False):
            spec = MachineSpec(
                total_frames=2048, seed=1017, fingerprint_enabled=enabled
            )
            kernel = Kernel(spec)
            kernel.attach_fusion(factory())
            kernels.append(kernel)
        on, off = kernels

        def step(fn):
            fn(on)
            fn(off)
            assert on.clock.now == off.clock.now, (
                f"clock diverged under {engine_name}: "
                f"on={on.clock.now} off={off.clock.now}"
            )

        procs = {}
        for kernel in kernels:
            procs[kernel] = [kernel.create_process(f"p{i}") for i in range(2)]
        vmas = {k: [p.mmap(10, mergeable=True) for p in procs[k]] for k in kernels}

        for proc_index in range(2):
            for index in range(10):
                step(
                    lambda k, p=proc_index, i=index: procs[k][p].write(
                        vmas[k][p].start + i * PAGE_SIZE,
                        tagged_content("lockstep", i % 3),
                    )
                )
        # Many short idles: per-tick clock trajectory over many scan
        # rounds of unchanged pages.
        for _ in range(60):
            step(lambda k: k.idle(20 * MS))
        # Disturb one page, then settle again.
        step(
            lambda k: procs[k][0].write(
                vmas[k][0].start, tagged_content("lockstep-dirty", 99)
            )
        )
        for _ in range(30):
            step(lambda k: k.idle(20 * MS))

        on_stats = on.physmem.fingerprints.stats
        off_stats = off.physmem.fingerprints.stats
        assert off_stats.digest_hits == 0
        if engine_name == "vusion":
            # VUsion compares full contents in its stable tree and never
            # asks for a digest, so the knob has nothing to act on.  Pin
            # that: a VUsion that starts reading digests must move to
            # the cache-hit check below.
            assert on_stats.digest_hits == on_stats.digest_misses == 0
            assert off_stats.digest_misses == 0
            return
        assert on_stats.digest_hits > 0, (
            f"{engine_name} never hit the digest cache (digest_hits=0); "
            "the charge-neutrality comparison is vacuous"
        )

    def test_ksm_lockstep(self):
        self._lockstep("ksm")

    def test_wpf_lockstep(self):
        self._lockstep("wpf")

    def test_vusion_lockstep(self):
        self._lockstep("vusion")
