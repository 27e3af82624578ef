"""Central architecture and cost parameters for the simulated machine.

The defaults mirror the paper's testbed (Intel Xeon E3-1240 v5: 8 MiB
16-way LLC with 8192 sets and 128 page colors, 4 KiB base pages, 2 MiB
transparent huge pages) and the default KSM configuration on Linux
4.10 (scan N=100 pages every T=20 ms).

All latencies are expressed in simulated nanoseconds and are charged by
the MMU/kernel on every memory operation.  The *relative* magnitudes are
what matter for reproducing the paper's side channels and overhead
shapes; the absolute values are calibrated, not measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: Size of a base page in bytes.
PAGE_SIZE = 4096

#: Size of a transparent huge page in bytes (x86-64: 2 MiB).
HUGE_PAGE_SIZE = 2 * 1024 * 1024

#: Number of base pages per huge page (x86-64: 512).
PAGES_PER_HUGE_PAGE = HUGE_PAGE_SIZE // PAGE_SIZE

#: Bytes per cache line.
CACHE_LINE_SIZE = 64

#: Cache lines per 4 KiB page.
LINES_PER_PAGE = PAGE_SIZE // CACHE_LINE_SIZE

# Convenient time units (simulated nanoseconds).
NS = 1
US = 1000 * NS
MS = 1000 * US
SECOND = 1000 * MS
MINUTE = 60 * SECOND


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of the shared last-level cache.

    The defaults model the Xeon E3-1240 v5 used in the paper: 8 MiB,
    16 ways, 64-byte lines -> 8192 sets and ``8192 / 64 = 128`` page
    colors.
    """

    size_bytes: int = 8 * 1024 * 1024
    ways: int = 16
    line_size: int = CACHE_LINE_SIZE

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)

    @property
    def num_colors(self) -> int:
        """Number of distinct page colors (sets spanned per page)."""
        return self.num_sets // LINES_PER_PAGE


@dataclass(frozen=True)
class TlbGeometry:
    """Geometry of the per-process data TLB."""

    entries: int = 64
    ways: int = 4

    @property
    def num_sets(self) -> int:
        return self.entries // self.ways


@dataclass(frozen=True)
class DramGeometry:
    """DRAM organisation used for Rowhammer modelling.

    A row spans ``pages_per_row`` physically-consecutive base pages; the
    bank interleaves below the row index, so rows ``r`` and ``r + 1`` of
    the same bank back frames ``pages_per_row * banks`` apart.  This is
    the property the reuse-based Flip Feng Shui attack relies on:
    a large *contiguous* frame range contains many same-bank
    adjacent-row triples suitable for double-sided Rowhammer.
    """

    banks: int = 8
    pages_per_row: int = 2

    @property
    def row_stride_pages(self) -> int:
        """Frame-number distance between adjacent rows of one bank."""
        return self.banks * self.pages_per_row


@dataclass(frozen=True)
class CostModel:
    """Latency charged for each memory-system event (simulated ns).

    The side channels in the paper are latency *differences*:

    * copy-on-write / copy-on-access faults vs. plain stores (Figs 5/6),
    * LLC hit vs. DRAM access (PRIME+PROBE, FLUSH+RELOAD),
    * 3-level vs. 4-level page walks (translation/AnC attack),
    * DRAM row-buffer hit vs. miss.

    Any cost model preserving those orderings reproduces the attacks;
    these values keep the magnitudes roughly realistic.
    """

    # Core access path.
    register_op: int = 1
    llc_hit: int = 12
    dram_row_hit: int = 50
    dram_row_miss: int = 95
    uncached_access: int = 180

    # Address translation.
    tlb_hit: int = 1
    page_walk_per_level: int = 22

    # Kernel fault handling.
    fault_trap: int = 1400
    copy_page: int = 2600
    zero_page: int = 1800
    buddy_alloc: int = 260
    buddy_free: int = 310
    pool_alloc: int = 300
    deferred_free_enqueue: int = 45
    tlb_shootdown: int = 900

    # Fusion-engine bookkeeping (charged while the daemon scans).
    scan_page: int = 350
    checksum_page: int = 700
    tree_compare: int = 650
    pte_update: int = 150
    idle_probe: int = 60

    # Huge-page operations.
    thp_split: int = 9000
    thp_collapse: int = 250_000
    thp_copy: int = 180_000

    # Rowhammer.
    hammer_round: int = 120_000


@dataclass(frozen=True)
class FusionConfig:
    """Scanning configuration shared by KSM-style engines.

    Linux 4.10 defaults: ``pages_per_scan=100`` every
    ``scan_interval=20 ms`` (5000 pages/second).
    """

    pages_per_scan: int = 100
    scan_interval: int = 20 * MS


@dataclass(frozen=True)
class WpfConfig:
    """Windows Page Fusion configuration: full pass every 15 minutes."""

    pass_interval: int = 15 * MINUTE


@dataclass(frozen=True)
class VusionConfig:
    """VUsion-specific knobs on top of :class:`FusionConfig`.

    ``random_pool_frames`` reserves 128 MiB by default, providing 15
    bits of allocation entropy exactly as in the paper (2**15 frames of
    4 KiB each).  ``thp_active_threshold`` is the paper's ``n``: a huge
    page counts as *active* (and is conserved) when at least ``n`` of
    its 512 base pages are in the working set.
    """

    random_pool_frames: int = 2**15
    working_set_enabled: bool = True
    thp_enabled: bool = False
    thp_active_threshold: int = 1
    deferred_free_interval: int = 10 * MS
    #: Minimum time a page must stay untouched before it becomes a
    #: fusion candidate ("a period that can be controlled in VUsion",
    #: §7.2).  None selects 5 scan intervals.
    min_idle_ns: int | None = None

    # ------------------------------------------------------------------
    # Ablation switches for the §7.1 design decisions.  All default to
    # the secure setting; disabling any one re-opens a specific attack
    # (see tests/test_ablations.py and benchmarks/test_ablations.py).
    # ------------------------------------------------------------------
    #: Decision (ii): free frames via the background queue so merged
    #: and fake-merged copy-on-access paths execute identical work.
    deferred_free_enabled: bool = True
    #: Decision (iii): re-back every (fake-)merged page with a fresh
    #: random frame on each scan round.
    rerandomize_each_scan: bool = True
    #: Set the Caching-Disabled bit on fused PTEs, defeating
    #: prefetch-based side channels (§7.1/§9.1).
    cache_disable_enabled: bool = True


@dataclass(frozen=True)
class MachineSpec:
    """Full description of a simulated machine.

    ``total_frames`` defaults to a scaled-down host (256 MiB); the
    experiments size their machines explicitly relative to the VMs they
    boot.  The cache geometry is kept at full fidelity regardless of
    memory scale so page colors behave exactly as on the testbed.
    """

    total_frames: int = 65536
    cache: CacheGeometry = field(default_factory=CacheGeometry)
    tlb: TlbGeometry = field(default_factory=TlbGeometry)
    dram: DramGeometry = field(default_factory=DramGeometry)
    costs: CostModel = field(default_factory=CostModel)
    seed: int = 1017
    #: Cache per-frame content digests and replay unchanged scan work.
    #: Pure Python-level optimisation: simulated time and behaviour are
    #: identical either way (tests/test_fingerprint_determinism.py).
    fingerprint_enabled: bool = True

    @property
    def total_bytes(self) -> int:
        return self.total_frames * PAGE_SIZE

    def scaled(self, total_frames: int) -> "MachineSpec":
        """Return a copy of this spec with a different memory size."""
        return replace(self, total_frames=total_frames)


DEFAULT_MACHINE = MachineSpec()
DEFAULT_FUSION = FusionConfig()
DEFAULT_WPF = WpfConfig()
DEFAULT_VUSION = VusionConfig()
