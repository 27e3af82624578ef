"""Physical-memory substrate: page contents, frames and the buddy allocator."""

from repro.mem.arena import ContentArena, ZERO_ID
from repro.mem.buddy import BuddyAllocator
from repro.mem.content import (
    PageContent,
    ZERO_PAGE,
    content_digest,
    flip_bit,
    make_content,
    random_content,
)
from repro.mem.physmem import FrameType, PhysicalMemory
from repro.mem.scankernel import (
    BatchScanKernel,
    HAVE_NUMPY,
    ScalarScanKernel,
)

__all__ = [
    "BatchScanKernel",
    "BuddyAllocator",
    "ContentArena",
    "FrameType",
    "HAVE_NUMPY",
    "PageContent",
    "PhysicalMemory",
    "ScalarScanKernel",
    "ZERO_ID",
    "ZERO_PAGE",
    "content_digest",
    "flip_bit",
    "make_content",
    "random_content",
]
